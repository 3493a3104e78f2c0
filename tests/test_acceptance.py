"""Acceptance suite: one check per shipped criterion, each printing a
PASS/FAIL line with its runtime (run with `pytest -v -s` to see them)."""

import json
import random
import time
from fractions import Fraction

from mpmath import mp, mpf, cos, pi

from gordian.circle import ArcSet, arcs_of_generator, generator_sign_at, independence_witness
from gordian.cli import main as cli_main
from gordian.graph import build_detour, choose_detour, verify_detour
from gordian.knots import (
    FormalKnot,
    distance_lower_bound,
    generator_knot,
    unknotting_upper_bound,
)
from gordian.laurent import (
    from_basis,
    is_normalized,
    linking_form,
    parse_poly,
    symmetrize,
    to_basis,
    torus_poly,
)
from gordian.signature import (
    StepFun,
    eval_formal_signature,
    isolate_circle_roots,
    signature_of_poly,
    sup_distance,
)
from gordian import sturm

F = Fraction
FIG3_TEXT = "-t^-2+3t^-1-3+3t-t^2"


class Criterion:
    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} ({elapsed:.2f}s, limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
        return False


def test_criterion_1_basis_round_trip():
    with Criterion(1, "basis round trip on 1000 random normalized polynomials", 5):
        rng = random.Random(101)
        for _ in range(1000):
            a = [rng.randrange(-10, 11) for _ in range(rng.randrange(21))]
            while a and a[-1] == 0:
                a.pop()
            d = from_basis(a)
            assert d.degree() is None or d.degree() <= 20
            assert is_normalized(d)
            assert to_basis(d) == tuple(a)
            assert from_basis(to_basis(d)) == d


def test_criterion_2_worked_example():
    with Criterion(2, "worked example decomposes to (-1, 1) and reassembles", 5):
        fig3 = parse_poly(FIG3_TEXT)
        assert is_normalized(fig3)
        assert fig3(1) == 1
        assert to_basis(fig3) == (-1, 1)
        assert symmetrize(linking_form((-1, 1))) == fig3
        assert from_basis((-1, 1)) == fig3


def test_criterion_3_independence_patterns():
    with Criterion(3, "independence witnesses for all 16 sign patterns over (3,15,105,945)", 5):
        ps = [3, 15, 105, 945]
        arc_sets = {p: arcs_of_generator(p) for p in ps if p <= 105}
        for mask in range(16):
            signs = [1 if mask & (1 << i) else -1 for i in range(4)]
            theta = independence_witness(ps, signs)
            for p, s in zip(ps, signs):
                assert generator_sign_at(p, theta) == s
                if p in arc_sets:
                    assert arc_sets[p].contains(theta) == (s == -1)


def test_criterion_4_tree_certification(capsys):
    with Criterion(4, "certify-all depth 3: 105 self-validating certificates", 60):
        code = cli_main(["certify-all", "--depth", "3"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        payload = doc["payload"]
        assert payload["pairs"] == 105
        assert payload["all_valid"] is True
        certs = payload["certificates"]
        assert len(certs) == 105
        for cert in certs:
            d = _tree_distance_from_paths(cert["x"], cert["y"])
            assert cert["valid"] is True
            assert cert["lower"] == d
            assert cert["upper"] == 2 * d
            # the stronger per-pair jump of 4 per edge is NOT what evaluation
            # gives (each edge contributes 2); the discrepancy is recorded
            assert "discrepancy" in cert
            assert cert["observed_gap"] == 2 * d
            assert cert["claimed_gap"] == 4 * d
            assert cert["discrepancy"] == (d > 0)
    print("      (largest generator parameter used: p_29 = 59!!)")


def _tree_distance_from_paths(x, y):
    from gordian.graph import parse_vertex, tree_distance

    return tree_distance(parse_vertex(x), parse_vertex(y))


def test_criterion_5_connectivity_detours():
    with Criterion(5, "100 randomized detours verify; exact detour parameters", 10):
        assert choose_detour([generator_knot(3)]) == 5
        assert choose_detour([generator_knot(3) + generator_knot(5)]) == 17
        rng = random.Random(103)
        pool = [3, 5, 7, 9, 11, 15, 21]
        for _ in range(100):
            path = [FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(3)))]
            while len(path) < rng.randrange(1, 7):
                current = path[-1]
                if current.generators and rng.random() < 0.5:
                    gens = list(current.generators)
                    gens.pop(rng.randrange(len(gens)))
                    path.append(FormalKnot(gens))
                else:
                    path.append(current + FormalKnot([(rng.choice(pool), rng.random() < 0.5)]))
            forbidden = [
                FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(4)))
                for _ in range(rng.randrange(9))
            ]
            forbidden = [f for f in forbidden if f != path[0] and f != path[-1]]
            plan = build_detour(path, forbidden)
            assert verify_detour(plan).ok


def test_criterion_6_root_isolation():
    with Criterion(6, "root isolation counts and brackets for D_p and the worked example", 5):
        with mp.workdps(50):
            for p in (3, 5, 15, 105):
                iso = isolate_circle_roots(torus_poly(p)).refined(F(1, 10**6))
                assert iso.circle_root_count() == p - 1
                angles = [F(2 * k + 1, 2 * p) for k in range((p - 1) // 2)]
                assert len(iso.intervals) == len(angles)
                for (lo, hi), theta in zip(reversed(iso.intervals), angles):
                    x = 2 * cos(2 * pi * mpf(theta.numerator) / theta.denominator)
                    assert mpf(lo.numerator) / lo.denominator < x
                    assert x < mpf(hi.numerator) / hi.denominator
                    assert (sturm.peval(iso.poly, lo) > 0) != (sturm.peval(iso.poly, hi) > 0)
            fig3 = parse_poly(FIG3_TEXT)
            iso = isolate_circle_roots(fig3)
            assert len(iso.intervals) == 1 and iso.circle_root_count() == 2


def test_criterion_7_property_suites():
    with Criterion(7, "algebraic property suites, 200+ randomized instances each", 30):
        rng = random.Random(107)
        pool = [3, 5, 7, 9, 11, 15, 21]

        def rand_knot():
            return FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(4)))

        # signature additivity under connected sum + mirror antisymmetry
        for _ in range(200):
            k1, k2 = rand_knot(), rand_knot()
            theta = F(rng.randrange(2048), 2048)
            assert eval_formal_signature(k1 + k2, theta) == eval_formal_signature(
                k1, theta
            ) + eval_formal_signature(k2, theta)
            assert eval_formal_signature(k1.mirror(), theta) == -eval_formal_signature(k1, theta)

        # pseudometric laws for sup_distance
        def rand_step():
            n = rng.randrange(5)
            bps = set()
            while len(bps) < n:
                bps.add(F(rng.randrange(24), 24))
            if not bps:
                return StepFun.constant(rng.randrange(-4, 5))
            return StepFun(sorted(bps), [rng.randrange(-4, 5) for _ in bps])

        for _ in range(200):
            f, g, h = rand_step(), rand_step(), rand_step()
            assert sup_distance(f, f) == 0
            assert sup_distance(f, g) == sup_distance(g, f)
            assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h)

        # pseudometric laws and the sandwich for the gordian distance bounds
        for _ in range(200):
            k1, k2, k3 = rand_knot(), rand_knot(), rand_knot()
            lo = distance_lower_bound(k1, k2)
            assert lo == distance_lower_bound(k2, k1)
            assert distance_lower_bound(k1, k1) == 0
            assert distance_lower_bound(k1, k3) <= lo + distance_lower_bound(k2, k3)
            assert lo <= unknotting_upper_bound(k1, k2)

        # ArcSet boolean algebra laws
        def rand_arcs():
            arcs = []
            for _ in range(rng.randrange(4)):
                den = rng.choice((2, 3, 4, 5, 6, 8, 12))
                lo = F(rng.randrange(den), den)
                arcs.append((lo, lo + F(rng.randrange(1, den), den)))
            return ArcSet(arcs)

        for _ in range(200):
            a, b = rand_arcs(), rand_arcs()
            assert ~(a | b) == (~a & ~b)
            assert ~(a & b) == (~a | ~b)
            assert ~~a == a
            assert (a & (a | b)) == a
            assert (a | (a & b)) == a


def test_signature_of_torus_matches_arcs_everywhere():
    # supporting invariant: the value-2 locus of the signature of D_p is the
    # generator arc set, for every p up to 105
    for p in (3, 5, 15, 105):
        assert signature_of_poly(torus_poly(p)).level_set(2) == arcs_of_generator(p)
