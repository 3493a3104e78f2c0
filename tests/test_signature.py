import functools
import math
import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, cos, pi

from gordian import laurent, signature, sturm
from gordian.circle import arcs_of_generator
from gordian.errors import DomainError, NonSimpleRootError
from gordian.knots import FormalKnot, UNKNOT, generator_knot
from gordian.laurent import ONE, from_basis, parse_poly, to_chebyshev, torus_factorization, torus_poly
from gordian.signature import (
    AlgebraicAngle,
    StepFun,
    _merged_events,
    angle_cmp,
    eval_formal_signature,
    isolate_circle_roots,
    min_root_gap,
    signature_of_poly,
    sup_distance,
)
from test_sturm import cos_interior_poly

F = Fraction
FIG3 = parse_poly("-t^-2+3t^-1-3+3t-t^2")


def torus_step(p):
    return signature_of_poly(torus_poly(p))


def random_step(rng, max_breaks=4):
    n = rng.randrange(max_breaks + 1)
    bps = set()
    while len(bps) < n:
        bps.add(F(rng.randrange(24), 24))
    vals = [rng.randrange(-4, 5) for _ in bps]
    if not bps:
        return StepFun.constant(rng.randrange(-4, 5))
    return StepFun(sorted(bps), vals)


# ---------------------------------------------------------------------------
# step functions

def test_constant_and_mirror():
    f = StepFun.constant(3)
    assert f.value_at(F(1, 7)) == 3
    assert f.mirror().value_at(F(0)) == -3
    g = torus_step(3)
    assert g.mirror().mirror() == g


def test_spurious_breakpoints_dropped():
    f = StepFun([F(0), F(1, 4), F(1, 2)], [1, 1, 2])
    assert f.breakpoints == (F(0), F(1, 2))
    assert f.values == (1, 2)
    g = StepFun([F(0), F(1, 2)], [5, 5])
    assert g.is_constant() and g.values == (5,)


def test_breakpoints_sorted_and_checked_for_duplicates():
    f = StepFun([F(1, 2), F(1, 6), F(5, 6)], [0, 2, 1])
    assert f.breakpoints == (F(1, 6), F(1, 2), F(5, 6))
    assert f.values == (2, 0, 1)
    for bps in ([F(1, 3), F(1, 3)], [F(1, 2), F(1, 3), F(1, 3)], [F(1, 3), F(4, 3)]):
        with pytest.raises(DomainError, match="distinct"):
            StepFun(bps, [1, 2, 3][: len(bps)])


def test_rational_angles_compare_modulo_one_turn():
    assert angle_cmp(F(7, 6), F(1, 3)) == -1
    assert angle_cmp(F(-1, 6), F(1, 2)) == 1
    assert angle_cmp(F(1), F(0)) == 0
    assert angle_cmp(F(3, 2), F(1, 2)) == 0
    for a in (F(0), F(1, 5), F(1, 2), F(4, 5)):
        for b in (F(0), F(1, 5), F(1, 2), F(4, 5)):
            assert angle_cmp(a + 1, b - 2) == (a > b) - (a < b)


def test_value_at_breakpoint_is_average():
    s3 = torus_step(3)
    assert s3.value_at(F(1, 6)) == 1
    assert s3.value_at(F(5, 6)) == 1
    assert s3.value_at(F(1, 2)) == 2
    assert s3.value_at(F(0)) == 0


def test_addition_merges_partitions():
    s3, s15 = torus_step(3), torus_step(15)
    both = s3 + s15
    # 1/6 is a breakpoint of both: the sum jumps 0 -> 4 there
    assert both.value_at(F(1, 6)) == 2
    assert both.value_at(F(1, 5)) == 4
    assert both.value_at(F(1, 12)) == 2
    assert both.value_at(F(0)) == 0
    for theta in (F(1, 7), F(3, 7), F(9, 10), F(1, 30)):
        assert both.value_at(theta) == s3.value_at(theta) + s15.value_at(theta)


def test_level_set_matches_generator_arcs():
    for p in (3, 5, 15, 105):
        assert torus_step(p).level_set(2) == arcs_of_generator(p)


# ---------------------------------------------------------------------------
# signature_of_poly

def test_signature_of_one_is_zero():
    assert signature_of_poly(ONE) == StepFun.constant(0)


def test_signature_of_torus_is_rational_two_zero():
    s3 = torus_step(3)
    assert s3.breakpoints == (F(1, 6), F(5, 6))
    assert s3.values == (2, 0)


def test_signature_rejects_non_normalized():
    with pytest.raises(DomainError):
        signature_of_poly(parse_poly("t-1"))


def test_signature_rejects_repeated_circle_roots():
    d3 = torus_poly(3)
    with pytest.raises(NonSimpleRootError):
        signature_of_poly(d3 * d3)
    # D_3 and D_15 share the circle root at 1/6
    with pytest.raises(NonSimpleRootError):
        signature_of_poly(d3 * torus_poly(15))


def test_signature_figure_example():
    sf = signature_of_poly(FIG3)
    assert len(sf.breakpoints) == 2
    b0, b1 = sf.breakpoints
    assert isinstance(b0, AlgebraicAngle) and not b0.upper
    assert isinstance(b1, AlgebraicAngle) and b1.upper
    assert sf.values == (2, 0)
    # breakpoints sit at theta* and 1 - theta* with 2cos(2 pi theta*) = (3-sqrt5)/2
    with mp.workdps(40):
        x_star = (3 - mpf(5) ** mpf("0.5")) / 2
        assert mpf(b0.lo.numerator) / b0.lo.denominator < x_star < mpf(b0.hi.numerator) / b0.hi.denominator
        # the mirror pair bounds theta = 0.2196... from both sides
        assert angle_cmp(b0, F(1, 6)) == 1 and angle_cmp(b0, F(1, 4)) == -1
        assert angle_cmp(b1, F(3, 4)) == 1 and angle_cmp(b1, F(5, 6)) == -1
        assert sf.value_at(F(1, 2)) == 2 and sf.value_at(F(0)) == 0


def test_algebraic_angle_equality_with_rational():
    # x - 1 has the root 2cos(2 pi / 6): the isolated angle IS the turn 1/6
    a = AlgebraicAngle((-1, 1), F(1, 2), F(3, 2), upper=False)
    assert angle_cmp(a, F(1, 6)) == 0
    b = AlgebraicAngle((-1, 1), F(1, 2), F(3, 2), upper=True)
    assert angle_cmp(b, F(5, 6)) == 0
    assert angle_cmp(a, F(1, 5)) == -1 and angle_cmp(a, F(1, 7)) == 1
    assert angle_cmp(a, b) == -1
    # rational operands count modulo one turn against an algebraic angle
    assert angle_cmp(a, F(1, 6) + 1) == 0 and angle_cmp(F(1, 6) + 1, a) == 0
    assert angle_cmp(b, F(5, 6) - 1) == 0 and angle_cmp(F(5, 6) - 1, b) == 0
    assert angle_cmp(a, F(5, 6) - 1) == -1 and angle_cmp(F(-1, 5), b) == -1
    assert angle_cmp(F(3, 2), a) == 1 and angle_cmp(b, F(-1)) == 1


def test_algebraic_angle_comparison_across_polynomials():
    # root 1 of x - 1 against the root (3 - sqrt 5)/2 of -x^2+3x-1: the larger
    # x means the smaller angle in the lower half
    a = AlgebraicAngle((-1, 1), F(1, 2), F(3, 2), upper=False)      # theta = 1/6
    b = AlgebraicAngle((-1, 3, -1), F(0), F(1), upper=False)        # theta = 0.2196...
    assert angle_cmp(a, b) == -1 and angle_cmp(b, a) == 1
    # upper half reverses the x-direction
    au = AlgebraicAngle((-1, 1), F(1, 2), F(3, 2), upper=True)      # 5/6
    bu = AlgebraicAngle((-1, 3, -1), F(0), F(1), upper=True)        # 0.7803...
    assert angle_cmp(au, bu) == 1 and angle_cmp(bu, au) == -1
    # equal roots of different polynomials are detected through the gcd
    c = AlgebraicAngle((3, -4, 1), F(0), F(2), upper=False)         # (x-1)(x-3), root 1
    assert angle_cmp(a, c) == 0
    assert angle_cmp(c, F(1, 6)) == 0


def test_sup_distance_between_general_signatures():
    sf = signature_of_poly(FIG3)
    assert sup_distance(sf, sf) == 0
    assert sup_distance(sf, sf.mirror()) == 4
    assert (sf + sf.mirror()) == StepFun.constant(0)
    assert (sf + sf).value_at(F(1, 4)) == 4


def test_angle_order_matches_numeric_values():
    from mpmath import acos

    with mp.workdps(40):
        rng = random.Random(83)
        angles = [F(k, 64) for k in range(0, 64, 7)]
        for d in (FIG3, parse_poly("2t^-2-3t^-1+3-3t+2t^2")):
            angles.extend(signature_of_poly(d).breakpoints)

        def numeric(a):
            if isinstance(a, AlgebraicAngle):
                fine = a
                for _ in range(20):
                    fine = fine.refined()
                x = (mpf(fine.lo.numerator) / fine.lo.denominator + mpf(fine.hi.numerator) / fine.hi.denominator) / 2
                t = acos(x / 2) / (2 * pi)
                return float(1 - t if a.upper else t)
            return float(a)

        shuffled = angles[:]
        rng.shuffle(shuffled)
        import functools
        from gordian.signature import angle_cmp as cmp_fn

        ordered = sorted(shuffled, key=functools.cmp_to_key(cmp_fn))
        nums = [numeric(a) for a in ordered]
        assert all(x <= y + 1e-9 for x, y in zip(nums, nums[1:]))


def test_cos_reference_isolation_brackets_true_values():
    """The enclosures of 2 cos(2 pi j/n) for every turn j/n in (0, 1/2)."""
    with mp.workdps(60):
        for n in (3, 4, 5, 6, 7, 12, 30, 210):
            for j in range(1, (n + 1) // 2):
                x = 2 * cos(2 * pi * mpf(j) / n)
                for w in (32, 64, 128):
                    lo, hi = signature._cos_bounds(F(j, n), w)
                    assert hi - lo < F(1, 2**w)
                    assert mpf(lo.numerator) / lo.denominator < x < mpf(hi.numerator) / hi.denominator


def test_signature_general_path_matches_sign_oracle():
    # random normalized polynomials against direct high-precision sign
    # evaluation at random rational turns
    from gordian.laurent import from_basis, to_chebyshev

    rng = random.Random(41)
    with mp.workdps(50):
        for _ in range(20):
            a = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
            d = from_basis(a)
            try:
                s = signature_of_poly(d)
            except NonSimpleRootError:
                continue
            q = to_chebyshev(d)
            for _ in range(25):
                theta = F(rng.randrange(1, 512), 512)
                x = 2 * cos(2 * pi * mpf(theta.numerator) / theta.denominator)
                y = sum(c * x**i for i, c in enumerate(q))
                if abs(y) < mpf("1e-30"):
                    continue
                expected = 1 - (1 if y > 0 else -1)
                assert s.value_at(theta) == expected, (str(d), theta)


# ---------------------------------------------------------------------------
# root isolation

def test_isolation_no_roots():
    iso = isolate_circle_roots(ONE)
    assert iso.intervals == () and iso.sign_pattern == (1,)
    assert iso.circle_root_count() == 0


def test_isolation_d3_single_interval_at_one():
    iso = isolate_circle_roots(torus_poly(3))
    assert len(iso.intervals) == 1
    lo, hi = iso.intervals[0]
    assert lo < 1 < hi
    assert iso.circle_root_count() == 2
    assert iso.sign_pattern == (-1, 1)


def test_isolation_counts_for_torus():
    for p in (3, 5, 15, 105):
        iso = isolate_circle_roots(torus_poly(p))
        assert iso.circle_root_count() == p - 1
        assert len(iso.intervals) == (p - 1) // 2


def test_isolation_brackets_known_roots():
    with mp.workdps(50):
        for p in (3, 5, 15, 105):
            iso = isolate_circle_roots(torus_poly(p)).refined(F(1, 10**6))
            # descending x-intervals correspond to ascending angles (2k+1)/(2p)
            angles = [F(2 * k + 1, 2 * p) for k in range((p - 1) // 2)]
            for (lo, hi), theta in zip(reversed(iso.intervals), angles):
                x = 2 * cos(2 * pi * mpf(theta.numerator) / theta.denominator)
                assert mpf(lo.numerator) / lo.denominator < x < mpf(hi.numerator) / hi.denominator
                # sign change across the interval certifies the bracket
                from gordian import sturm

                assert (sturm.peval(iso.poly, lo) > 0) != (sturm.peval(iso.poly, hi) > 0)


def test_isolation_figure_polynomial_one_pair():
    iso = isolate_circle_roots(FIG3)
    assert len(iso.intervals) == 1
    assert iso.circle_root_count() == 2


def test_isolation_refinement_keeps_counts():
    iso = isolate_circle_roots(torus_poly(15))
    fine = iso.refined(F(1, 10**9))
    assert len(fine.intervals) == len(iso.intervals)
    assert all(hi - lo <= F(1, 10**9) for lo, hi in fine.intervals)
    assert fine.sign_pattern == iso.sign_pattern


def test_isolation_handles_roots_at_plus_minus_one():
    # t + 2 + 1/t is symmetric with a double zero at t = -1 (x = -2)
    d = parse_poly("t^-1+2+t")
    iso = isolate_circle_roots(d)
    assert iso.root_at_half_turn()
    assert iso.circle_root_count() == 1


@pytest.mark.parametrize(
    "text, intervals, signs, roots",
    [
        ("t^-2-2t^-1+2-2t+t^2", [["-2/9", "2/3"], ["2", "2"]], [1, -1, 0], 3),
        ("t^-3-t^-1-t+t^3", [["-2", "-2"], ["-2/9", "2/3"], ["2", "2"]], [0, 1, -1, 0], 4),
    ],
)
def test_isolation_of_interior_roots_next_to_roots_at_plus_minus_two(text, intervals, signs, roots):
    """q = x(x - 2) and x(x - 2)(x + 2): the factors x -+ 2 are divided out,
    and the interior root is isolated with the chain of what is left."""
    isolate_circle_roots.cache_clear()
    iso = isolate_circle_roots(parse_poly(text))
    assert iso.payload() == {"intervals": intervals, "sign_pattern": signs, "circle_roots": roots}


# ---------------------------------------------------------------------------
# sup distance

def test_sup_distance_examples():
    s3 = torus_step(3)
    zero = StepFun.constant(0)
    assert sup_distance(s3, s3) == 0
    assert sup_distance(s3, zero) == 2
    assert sup_distance(s3 + torus_step(15), zero) == 4


def test_sup_distance_mixed_algebraic_rational():
    sf = signature_of_poly(FIG3)
    s3 = torus_step(3)
    assert sup_distance(sf, StepFun.constant(0)) == 2
    # theta* > 1/6, so on (1/6, theta*) the two differ by 2; they never differ more
    assert sup_distance(sf, s3) == 2
    assert sup_distance(sf + s3, StepFun.constant(0)) == 4


def test_sup_distance_pseudometric():
    rng = random.Random(43)
    for _ in range(250):
        f, g, h = (random_step(rng) for _ in range(3))
        assert sup_distance(f, g) == sup_distance(g, f)
        assert sup_distance(f, h) <= sup_distance(f, g) + sup_distance(g, h)
        assert sup_distance(f, f) == 0


# ---------------------------------------------------------------------------
# minimal root gap

def test_min_root_gap_torus():
    assert min_root_gap(torus_poly(3)).value == F(1, 3)
    for p in (3, 5, 15):
        gap = min_root_gap(torus_poly(p))
        assert gap.exact and gap.value == F(1, p)


def test_min_root_gap_product():
    gap = min_root_gap(torus_poly(3) * torus_poly(5))
    assert gap.exact and gap.value == F(1, 15)


def test_min_root_gap_trivial_cases():
    gap = min_root_gap(ONE)
    assert gap.exact and gap.value == 1


def test_min_root_gap_general_is_certified_lower_bound():
    gap = min_root_gap(FIG3)
    assert not gap.exact
    assert gap.value > 0
    # true minimal gap is 2 theta* = 0.43902...
    with mp.workdps(30):
        x_star = (3 - mpf(5) ** mpf("0.5")) / 2
        from mpmath import acos

        true_gap = 2 * acos(x_star / 2) / (2 * pi)
        assert mpf(gap.value.numerator) / gap.value.denominator < true_gap


# ---------------------------------------------------------------------------
# formal signatures

def test_eval_formal_signature_examples():
    assert eval_formal_signature(UNKNOT, F(1, 3)) == 0
    assert eval_formal_signature(generator_knot(3), F(1, 2)) == 2
    k = generator_knot(3) + generator_knot(15, True)
    assert eval_formal_signature(k, F(1, 15)) == -2


def test_eval_formal_signature_average_at_breakpoints():
    assert eval_formal_signature(generator_knot(3), F(1, 6)) == 1


def test_formal_signature_additive_and_mirror():
    rng = random.Random(47)
    pool = [3, 5, 7, 9, 11, 15, 21]
    for _ in range(250):
        k1 = FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(4)))
        k2 = FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(4)))
        theta = F(rng.randrange(1024), 1024)
        assert eval_formal_signature(k1 + k2, theta) == eval_formal_signature(
            k1, theta
        ) + eval_formal_signature(k2, theta)
        assert eval_formal_signature(k1.mirror(), theta) == -eval_formal_signature(k1, theta)


def test_formal_signature_matches_step_function():
    k = generator_knot(3) + generator_knot(5)
    s = torus_step(3) + torus_step(5)
    rng = random.Random(53)
    for _ in range(100):
        theta = F(rng.randrange(512), 512)
        assert eval_formal_signature(k, theta) == s.value_at(theta)


# ---------------------------------------------------------------------------
# the breakpoint merge against the algorithm it replaced

def reference_merged_events(f, g):
    """The O(n*m) merge: drop g's breakpoints equal to any of f's, sort by
    angle_cmp and find each value by a linear scan of the breakpoints."""
    angles = list(f.breakpoints) + [
        b for b in g.breakpoints if all(angle_cmp(b, a) != 0 for a in f.breakpoints)
    ]
    angles.sort(key=functools.cmp_to_key(angle_cmp))
    out = []
    for e in angles:
        fa = f.values[f._arc_index(e)] if f.breakpoints else f.values[0]
        ga = g.values[g._arc_index(e)] if g.breakpoints else g.values[0]
        out.append((e, fa, ga))
    return out


def reference_drop_spurious(vals):
    """Indices kept by the restart loop that dropped one non-jump at a time."""
    idx = list(range(len(vals)))
    changed = True
    while changed and len(idx) > 1:
        changed = False
        for k in range(len(idx)):
            if vals[idx[k]] == vals[idx[k - 1]]:
                del idx[k]
                changed = True
                break
    return [] if len(idx) == 1 else idx


def general_steps(rng, count):
    from gordian.laurent import from_basis

    out = []
    while len(out) < count:
        d = from_basis([rng.randrange(-4, 5) for _ in range(rng.randrange(2, 7))])
        try:
            out.append(signature_of_poly(d))
        except NonSimpleRootError:
            continue
    return out


def assert_merge_matches_reference(f, g):
    reference = reference_merged_events(f, g)
    assert _merged_events(f, g) == reference
    reference_sup = max((abs(fa - ga) for _, fa, ga in reference), default=abs(f.values[0] - g.values[0]))
    assert sup_distance(f, g) == reference_sup
    reference_sum = (
        StepFun([e for e, _, _ in reference], [fa + ga for _, fa, ga in reference])
        if reference
        else StepFun.constant(f.values[0] + g.values[0])
    )
    assert f + g == reference_sum


def test_merge_matches_reference_on_general_signatures():
    steps = general_steps(random.Random(61), 12)
    for f, g in zip(steps, steps[1:] + steps[:1]):
        assert_merge_matches_reference(f, g)


def test_merge_matches_reference_on_mixed_breakpoints():
    rng = random.Random(67)
    general = general_steps(rng, 6) + [signature_of_poly(FIG3), signature_of_poly(FIG3 * torus_poly(3))]
    rational = [torus_step(3), torus_step(15), StepFun.constant(0), StepFun.constant(-3)]
    rational += [random_step(rng) for _ in range(6)]
    for f in general:
        for g in rational:
            assert_merge_matches_reference(f, g)
            assert_merge_matches_reference(g, f)


def test_merge_of_shared_breakpoints():
    # FIG3 * D_3 has an algebraic breakpoint at exactly the rational turn 1/6
    mixed = signature_of_poly(FIG3 * torus_poly(3))
    assert angle_cmp(mixed.breakpoints[0], F(1, 6)) == 0
    for f in general_steps(random.Random(71), 4) + [mixed, torus_step(15)]:
        assert_merge_matches_reference(f, f)
        assert_merge_matches_reference(f, f.mirror())
        assert f - f == StepFun.constant(0)
        assert (f + f).values == tuple(2 * v for v in f.values)
    assert_merge_matches_reference(mixed, torus_step(3))
    assert len(_merged_events(mixed, torus_step(3))) == len(mixed.breakpoints)


def test_merge_of_constants():
    for a, b in ((0, 0), (2, -3), (-1, 4)):
        f, g = StepFun.constant(a), StepFun.constant(b)
        assert _merged_events(f, g) == []
        assert sup_distance(f, g) == abs(a - b)
        assert f + g == StepFun.constant(a + b)
    for g in (torus_step(3), signature_of_poly(FIG3)):
        assert_merge_matches_reference(StepFun.constant(5), g)
        assert_merge_matches_reference(g, StepFun.constant(5))


def test_spurious_breakpoints_dropped_in_one_pass():
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randrange(1, 9)
        vals = [rng.randrange(-2, 3) for _ in range(n)]
        bps = [F(i, n) for i in range(n)]
        kept = reference_drop_spurious(vals)
        f = StepFun(bps, vals)
        assert f.breakpoints == tuple(bps[i] for i in kept)
        assert f.values == (tuple(vals[i] for i in kept) if kept else (vals[0],))


def test_sum_of_ordered_events_is_not_sorted_again(monkeypatch):
    """f + g makes at most n + m comparisons in the merge and n + m - 1 in
    StepFun's one-pass order check; re-sorting the merged events made 51."""
    from gordian import signature
    from gordian.laurent import from_basis

    f = signature_of_poly(from_basis([1, -2, 1, 0, 4, -3]))
    g = signature_of_poly(from_basis([0, 1, -2, 2, 2, 4]))
    n, m = len(f.breakpoints), len(g.breakpoints)
    assert (n, m) == (8, 10)
    calls = []

    def counting_cmp(a, b):
        calls.append((a, b))
        return angle_cmp(a, b)

    monkeypatch.setattr(signature, "angle_cmp", counting_cmp)
    monkeypatch.setattr(signature, "_ANGLE_KEY", functools.cmp_to_key(counting_cmp))
    total = f + g
    assert len(total.breakpoints) == n + m
    assert len(calls) <= (n + m) + (n + m - 1)


def test_signature_then_gap_isolates_the_circle_roots_once(monkeypatch):
    """The CLI's signature and gap of one polynomial share a single cached
    isolation: one Sturm chain, and the same RootIsolation object."""
    from gordian import sturm
    from gordian.laurent import from_basis

    d = from_basis([1, -2, 1, 0, 4, -3])
    chains = []
    real_chain = sturm.sturm_chain

    def counting_chain(f):
        chains.append(f)
        return real_chain(f)

    monkeypatch.setattr(sturm, "sturm_chain", counting_chain)
    isolate_circle_roots.cache_clear()
    sig = signature_of_poly(d)
    gap = min_root_gap(d)
    assert len(sig.breakpoints) == 8 and not gap.exact
    assert len(chains) == 1
    assert isolate_circle_roots.cache_info().hits == 1
    assert isolate_circle_roots(d) is isolate_circle_roots(d)
    assert isolate_circle_roots.cache_info().maxsize == 16


# ---------------------------------------------------------------------------
# one owner for the square-free split: signature_of_poly reads q, its
# square-free part and its repeated part from the cached isolation, against
# the check that converted d and ran the gcd again, and the Fraction-based
# square-free part


def reference_primitive(f):
    """Scale f by a positive rational so the coefficients become coprime
    integers, clearing Fraction denominators first."""
    f = sturm.trim(f)
    if not f:
        return ()
    denom = lcm(*(F(c).denominator for c in f))
    ints = [int(c * denom) for c in f]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def reference_square_free_part(f):
    """f divided by gcd(f, f') over Fraction, then made primitive."""
    f = reference_primitive(f)
    if sturm.degree(f) <= 0:
        return f
    g = sturm.pgcd(f, sturm.pderiv(f))
    if sturm.degree(g) == 0:
        return f
    quo, rem = sturm.pdivmod(f, g)
    assert not rem
    return reference_primitive(quo)


def reference_check_simple_circle_roots(d, q):
    """The check that took q = to_chebyshev(d) and computed gcd(q, q') itself."""
    if sturm.psign(q, -2) == 0:
        raise NonSimpleRootError(f"{d} vanishes at t = -1, a repeated circle root at turn 1/2")
    g = sturm.pgcd(q, sturm.pderiv(q))
    if sturm.degree(g) > 0:
        gt = reference_square_free_part(g)
        if sturm.psign(gt, -2) == 0 or sturm.psign(gt, 2) == 0:
            raise NonSimpleRootError(f"{d} has a repeated circle root")
        if sturm.count_roots(sturm.sturm_chain(gt), F(-2), F(2)) > 0:
            raise NonSimpleRootError(f"{d} has a repeated circle root")


def reference_signature_of_poly(d):
    """signature_of_poly with the reference check and the two-step value loop."""
    ps = torus_factorization(d)
    if ps is not None:
        return signature._signature_of_torus_product(ps)
    reference_check_simple_circle_roots(d, to_chebyshev(d))
    iso = isolate_circle_roots(d)
    r = len(iso.intervals)
    if r == 0:
        return StepFun.constant(0)
    sp = iso.sign_pattern
    lower = [AlgebraicAngle(iso.interior_poly, lo, hi, upper=False) for lo, hi in reversed(iso.intervals)]
    upper = [AlgebraicAngle(iso.interior_poly, lo, hi, upper=True) for lo, hi in iso.intervals]
    values_lower = [1 - sp[r - 1 - i] for i in range(r)]
    values = list(values_lower)
    for j in range(1, r):
        values.append(values_lower[r - 1 - j])
    values.append(1 - sp[r])
    return StepFun(lower + upper, values)


def outcome(fn, d):
    try:
        return "ok", fn(d).payload()
    except NonSimpleRootError as e:
        return "NonSimpleRootError", str(e)


def normalized_poly(a, form, p):
    """from_basis(a), its square, or its product with D_p."""
    d = from_basis(a)
    if form == "square":
        return d * d
    if form == "torus":
        return d * torus_poly(p)
    return d


normalized_polys = st.builds(
    normalized_poly,
    st.lists(st.integers(-4, 4), min_size=1, max_size=7),
    st.sampled_from(["plain", "square", "torus"]),
    st.sampled_from([3, 5, 7, 9, 15]),
)


@settings(max_examples=120, deadline=None)
@given(normalized_polys)
@example(from_basis([1]) ** 2)  # repeated root x = 3, off the circle
@example(FIG3 * FIG3)
@example(FIG3 * torus_poly(5))
@example(torus_poly(3) * torus_poly(15))
@example(from_basis([1, -2, 1, 0, 4, -3]) ** 2)
@example(FIG3 * from_basis([1]) ** 2)  # a repeated factor off the circle next to circle roots
@example(from_basis([1]) ** 2 * torus_poly(3))
@example(ONE)  # no breakpoints
def test_signature_matches_reference_check(d):
    assert outcome(signature_of_poly, d) == outcome(reference_signature_of_poly, d)


@settings(max_examples=120, deadline=None)
@given(normalized_polys)
@example(FIG3 * FIG3)
@example(from_basis([1]) ** 2)
def test_square_free_part_matches_fraction_division(d):
    q = to_chebyshev(d)
    assert sturm.square_free_part(q) == reference_square_free_part(q)
    g = sturm.pgcd(q, sturm.pderiv(q))
    assert sturm.square_free_part(g) == reference_square_free_part(g)


@settings(max_examples=200, deadline=None)
@given(normalized_polys)
def test_chebyshev_form_of_normalized_poly_is_odd_at_minus_two(d):
    """q(2) = d(1) = 1, and q(-2) = d(-1) is odd, since d(1) - d(-1) is
    twice the sum of the odd-exponent coefficients: no normalized d has a
    circle root at t = 1 or t = -1."""
    q = to_chebyshev(d)
    assert sturm.peval(q, 2) == d(1) == 1
    assert sturm.peval(q, -2) == d(-1)
    assert sturm.peval(q, -2) % 2 == 1


def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_signature_of_square_free_poly_converts_and_splits_once(monkeypatch):
    """On a square-free general d, the isolation converts d and builds one
    remainder sequence, which is both the gcd test and the Sturm chain, and
    signature_of_poly itself does neither again.  d's top coefficient is -5,
    so torus_factorization rejects it unconverted."""
    d = from_basis([-4, 4, 5, 3, -2, -1, -1, -1, -4, 5, 2, -1, 2, 5])
    assert str(d).startswith("-5t^-14+8t^-13")
    gcd_calls, chain_calls, chebyshev_calls, factor_calls = [], [], [], []
    counting(monkeypatch, sturm, "pgcd", gcd_calls)
    counting(monkeypatch, sturm, "sturm_chain", chain_calls)
    counting(monkeypatch, signature, "to_chebyshev", chebyshev_calls)
    counting(monkeypatch, laurent, "to_chebyshev", factor_calls)
    isolate_circle_roots.cache_clear()
    assert len(signature_of_poly(d).breakpoints) == 14
    assert len(gcd_calls) == 0
    assert len(chain_calls) == 1
    assert len(chebyshev_calls) == 1
    assert len(factor_calls) == 0


# ---------------------------------------------------------------------------
# the shared bisection and the binary search against the code they replaced

def reference_common_root_in_overlap(p1, i1, p2, i2):
    """The gcd equality test the comparator ran after four refinement rounds."""
    g = sturm.pgcd(p1, p2)
    if sturm.degree(g) < 1:
        return False
    lo = max(i1[0], i2[0])
    hi = min(i1[1], i2[1])
    if lo >= hi:
        return False
    return sturm.count_roots(sturm.sturm_chain(g), lo, hi) > 0


def reference_cmp_x_intervals(p1, lo1, hi1, p2, lo2, hi2):
    """Refine both intervals a round at a time, with the gcd test after four."""
    for _ in range(4):
        if hi1 <= lo2 or hi2 <= lo1:
            return -1 if hi1 <= lo2 else 1
        lo1, hi1 = sturm.refine_root(p1, lo1, hi1, (hi1 - lo1) / 2)
        lo2, hi2 = sturm.refine_root(p2, lo2, hi2, (hi2 - lo2) / 2)
    if reference_common_root_in_overlap(p1, (lo1, hi1), p2, (lo2, hi2)):
        return 0
    while not (hi1 <= lo2 or hi2 <= lo1):
        lo1, hi1 = sturm.refine_root(p1, lo1, hi1, (hi1 - lo1) / 2)
        lo2, hi2 = sturm.refine_root(p2, lo2, hi2, (hi2 - lo2) / 2)
    return -1 if hi1 <= lo2 else 1


@functools.lru_cache(maxsize=None)
def reference_cos_isolation(n):
    """Descending isolating intervals for the interior roots of cos_interior_poly(n).

    The roots 2 cos(2 pi j / n) interlace the values at half-integer j, so
    floating-point proposals for the separators are verified by exact sign
    alternation; Sturm isolation is only the fallback.
    """
    poly = cos_interior_poly(n)
    m = sturm.degree(poly)
    if m < 1:
        return (), poly
    den = 1 << 40
    cuts = []
    for j in range(m + 1):
        c = F(round(2 * math.cos(math.pi * (2 * j + 1) / n) * den), den)
        cuts.append(max(F(-2), min(F(2), c)))
    signs = [sturm.psign(poly, c) for c in cuts]
    alternating = all(signs) and all(a != b for a, b in zip(signs, signs[1:]))
    if alternating:
        ivs = tuple((cuts[j + 1], cuts[j]) for j in range(m))
        return ivs, poly
    ivs = sturm.isolate_roots(sturm.square_free_chain(poly)[1], F(-2), F(2))
    return tuple(reversed(ivs)), poly


def reference_rational_cos_ref(r):
    """(poly, lo, hi) isolating x = 2 cos(2 pi r) for r in (0, 1/2)."""
    assert 0 < r < F(1, 2)
    intervals, poly = reference_cos_isolation(r.denominator)
    lo, hi = intervals[r.numerator - 1]
    return poly, lo, hi


def reference_angle_cmp(a, b):
    """angle_cmp with a rational turn isolated among the roots of unity of its
    denominator and compared by the shared bisection."""
    if not isinstance(a, AlgebraicAngle):
        a %= 1
        if not isinstance(b, AlgebraicAngle):
            b %= 1
            return (a > b) - (a < b)
    if not isinstance(b, AlgebraicAngle):
        b %= 1
    ra, rb = signature._region(a), signature._region(b)
    if ra != rb:
        return -1 if ra < rb else 1

    def x_interval(t):
        if isinstance(t, AlgebraicAngle):
            return t.poly, t.lo, t.hi
        return reference_rational_cos_ref(min(t, 1 - t))

    xcmp = signature._cmp_x_intervals(*x_interval(a), *x_interval(b))
    return xcmp if ra == 3 else -xcmp


def reference_value_at(f, theta):
    """value_at by a linear scan of the breakpoints."""
    if not f.breakpoints:
        return F(f.values[0])
    idx = len(f.breakpoints) - 1
    for i, b in enumerate(f.breakpoints):
        if angle_cmp(b, theta) <= 0:
            idx = i
        else:
            break
    if angle_cmp(f.breakpoints[idx], theta) == 0:
        return F(f.values[idx - 1] + f.values[idx], 2)
    return F(f.values[idx])


def root_intervals(factors, lo, hi, width):
    """(poly, lo, hi) for each root in (lo, hi) of the square-free part of the
    product of factors, isolated on (lo, hi) and refined below width if given."""
    f = functools.reduce(sturm.pmul, factors, (1,))
    q, chain = sturm.square_free_chain(f)
    out = []
    for a, b in sturm.isolate_roots(chain, lo, hi):
        if width is not None:
            a, b = sturm.refine_root(q, a, b, width)
        out.append((q, a, b))
    return out


# n x - m with rational roots, and x^2 + b x + c, mostly with irrational ones.
linear_factors = st.builds(lambda m, n: (-m, n), st.integers(-6, 6), st.integers(1, 4))
quadratic_factors = st.builds(lambda b, c: (c, b, 1), st.integers(-4, 4), st.integers(-6, 6))
factor_lists = st.lists(st.one_of(linear_factors, quadratic_factors), max_size=2)
# Two isolation ranges on different bisection grids, so that intervals of the
# two polynomials come out disjoint, nested or partly overlapping.
RANGES = ((F(-100, 7), F(100, 9)), (F(-100, 9), F(100, 7)))
widths = st.sampled_from([None, F(1, 3), F(1, 64)])
cos_refs = st.builds(lambda m, k: reference_rational_cos_ref(F(k % ((m - 1) // 2) + 1, m)),
                     st.sampled_from([17, 29, 41]), st.integers(0, 40))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(linear_factors, quadratic_factors), min_size=1, max_size=2),
    factor_lists, factor_lists, widths, widths, st.lists(cos_refs, max_size=3),
)
@example([(-1, 1)], [], [(-3, 1)], None, None, [])  # x - 1 against (x - 1)(x - 3)
@example([(-2, 0, 1)], [(-1, 1)], [(5, 1)], None, F(1, 64), [])  # a shared root sqrt 2
def test_shared_bisection_matches_the_refinement_rounds(shared, own1, own2, w1, w2, refs):
    """Roots of two products with a shared factor, isolated on different
    grids, and 2 cos(2 pi k/m) for m = 17, 29, 41, all compared pairwise,
    each also with itself."""
    ivs = root_intervals(shared + own1, *RANGES[0], w1) + root_intervals(shared + own2, *RANGES[1], w2)
    ivs += refs
    for a in ivs:
        for b in ivs:
            assert signature._cmp_x_intervals(*a, *b) == reference_cmp_x_intervals(*a, *b), (a, b)


def test_root_at_a_dyadic_midpoint_needs_no_gcd(monkeypatch):
    """x - 1 on (1/2, 3/2) and (x - 1)(x - 3) on (0, 2) share the overlap
    (1/2, 3/2), whose midpoint is the root: both signs vanish there.  Equal
    irrational roots are decided by the gcd, once."""
    gcd_calls = []
    counting(monkeypatch, sturm, "pgcd", gcd_calls)
    assert signature._cmp_x_intervals((-1, 1), F(1, 2), F(3, 2), (3, -4, 1), F(0), F(2)) == 0
    assert signature._cmp_x_intervals((3, -4, 1), F(0), F(2), (-1, 1), F(1, 2), F(3, 2)) == 0
    assert gcd_calls == []
    assert signature._cmp_x_intervals((-2, 0, 1), F(1), F(2), (10, -2, -5, 1), F(0), F(3)) == 0
    assert len(gcd_calls) == 1


def probe_turns(f):
    """Rational turns inside each arc of f, before its first breakpoint, and
    unnormalized ones, from float approximations of the breakpoints."""
    approx = []
    for b in f.breakpoints:
        if isinstance(b, AlgebraicAngle):
            t = math.acos(float(b.lo + b.hi) / 4) / (2 * math.pi)
            approx.append(1 - t if b.upper else t)
        else:
            approx.append(float(b))
    ends = approx[1:] + [approx[0] + 1] if approx else []
    inside = [(t + u) / 2 for t, u in zip(approx, ends)] + [t / 2 for t in approx[:1]]
    turns = [F(x).limit_denominator(64) for x in inside] + [F(0), F(1, 2), F(-1, 3), F(5, 4)]
    return turns + [t + k for t in turns[:3] for k in (-1, 2)]


def assert_value_at_matches_the_scan(f):
    for i, b in enumerate(f.breakpoints):
        assert f.value_at(b) == F(f.values[i - 1] + f.values[i], 2) == reference_value_at(f, b)
    for theta in probe_turns(f) + list(signature_of_poly(FIG3).breakpoints):
        assert f.value_at(theta) == reference_value_at(f, theta), theta


@pytest.mark.parametrize("f", [
    torus_step(3),
    torus_step(15),
    signature_of_poly(torus_poly(3) * torus_poly(5) * torus_poly(7)),
    signature_of_poly(FIG3),
    signature_of_poly(FIG3 * torus_poly(5)),
    StepFun.constant(2),
])
def test_binary_search_matches_the_scan(f):
    assert_value_at_matches_the_scan(f)


@settings(max_examples=30, deadline=None)
@given(normalized_polys)
def test_binary_search_matches_the_scan_on_random_signatures(d):
    try:
        f = signature_of_poly(d)
    except NonSimpleRootError:
        return
    assert_value_at_matches_the_scan(f)


# ---------------------------------------------------------------------------
# a circle root against a rational turn: cosine enclosures against the
# root-of-unity isolation they replaced, and against mpmath

TURNS_UP_TO_60 = sorted({F(m, n) for n in range(1, 61) for m in range(n)})


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5), st.sampled_from([None, 3, 5]))
@example([1, -1], 3)  # the root of D_3 at turn 1/6
@example([2], 5)  # the roots of D_5 at turns 1/10 and 3/10
def test_rational_turn_comparison_matches_the_root_of_unity_isolation(a, p):
    """angle_cmp of every algebraic breakpoint of a general signature, alone
    or times D_3 or D_5, with every turn m/n, n <= 60, in its half circle."""
    d = from_basis(a) if p is None else from_basis(a) * torus_poly(p)
    try:
        f = signature_of_poly(d)
    except NonSimpleRootError:
        return
    bps = [b for b in f.breakpoints if isinstance(b, AlgebraicAngle)]
    for t in TURNS_UP_TO_60:
        for b in bps:
            if b.upper == (t > F(1, 2)):
                assert angle_cmp(b, t) == reference_angle_cmp(b, t), (b, t)


def test_rational_turn_comparison_finds_roots_of_unity():
    """The turns 1/6, 1/10 and 3/10 are breakpoints of D_3 and D_5 times a
    general polynomial, and their mirrors 5/6, 9/10 and 7/10 too."""
    f = signature_of_poly(FIG3 * torus_poly(3) * torus_poly(5))
    for t in (F(1, 6), F(1, 10), F(3, 10)):
        for turn in (t, 1 - t):
            assert sum(angle_cmp(b, turn) == 0 for b in f.breakpoints) == 1
            assert f.value_at(turn) == 1


edge_turns = st.builds(
    lambda base, n, side: base + side * F(1, n),
    st.sampled_from([F(0), F(1, 4), F(1, 2)]),
    st.one_of(st.integers(5, 10**6), st.integers(2**100 - 10, 2**100 + 1)),
    st.sampled_from([1, -1]),
).filter(lambda r: 0 < r < F(1, 2))
random_turns = st.builds(
    lambda m, n: F(m % ((n - 1) // 2) + 1, n), st.integers(0, 10**40), st.integers(3, 10**40)
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(edge_turns, random_turns, st.sampled_from([F(1, 6), F(1, 4), F(1, 3)])),
       st.sampled_from([32, 64, 128, 256, 1024, 2048]))
def test_cos_enclosure_contains_the_cosine(r, w):
    lo, hi = signature._cos_bounds(r, w)
    assert hi - lo < F(1, 2**w)
    with mp.workdps(max(250, w * 31 // 100 + 40)):
        x = 2 * cos(2 * pi * mpf(r.numerator) / r.denominator)
        assert mpf(lo.numerator) / lo.denominator < x < mpf(hi.numerator) / hi.denominator


def uncached_seconds(f, theta):
    """Fastest of three runs of f.value_at(theta), each with an empty enclosure cache."""
    best = math.inf
    for _ in range(3):
        signature._cos_bounds.cache_clear()
        t0 = time.perf_counter()
        f.value_at(theta)
        best = min(best, time.perf_counter() - t0)
    return best


def test_value_at_is_fast_at_huge_denominators():
    """value_at on FIG3 and 30 random general signatures at prime
    denominators up to 10^30, at a random turn and at the turn nearest each
    breakpoint, against the sign of the Chebyshev form from mpmath."""
    rng = random.Random(30)
    polys = [FIG3]
    while len(polys) < 31:
        d = from_basis([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))])
        try:
            f = signature_of_poly(d)
        except NonSimpleRootError:
            continue
        if any(isinstance(b, AlgebraicAngle) for b in f.breakpoints):
            polys.append(d)
    with mp.workdps(80):
        for d in polys:
            f, q = signature_of_poly(d), to_chebyshev(d)
            for n in (101, 1009, 10007, 10**6 + 3, 10**12 + 39, 10**30 + 57):
                turns = [F(rng.randrange(1, n), n)]
                for b in f.breakpoints:
                    x = (mpf(b.lo.numerator) / b.lo.denominator + mpf(b.hi.numerator) / b.hi.denominator) / 2
                    t = mp.acos(x / 2) / (2 * pi)
                    turns.append(F(int(mp.nint((1 - t if b.upper else t) * n)), n))
                for theta in turns:
                    y = sum(c * (2 * cos(2 * pi * mpf(theta.numerator) / theta.denominator)) ** i
                            for i, c in enumerate(q))
                    assert abs(y) > mpf(10) ** -60
                    assert f.value_at(theta) == (0 if y > 0 else 2), (str(d), theta)
                    assert uncached_seconds(f, theta) < 1e-3, (str(d), theta)


def test_sum_and_sup_distance_with_a_torus_signature_at_large_p():
    sf = signature_of_poly(FIG3)
    torus = signature._signature_of_torus_product([10007])
    t0 = time.perf_counter()
    assert sup_distance(sf, torus) == 2
    assert len((sf + torus).breakpoints) == 10008
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# integer interval ends from isolation to comparison, against the Fraction
# separation, the scanning RootIsolation predicates and the Fraction gap
# bounds they replaced

X_MINUS_2 = parse_poly("t^-1-2+t")
X_PLUS_2 = parse_poly("t^-1+2+t")


def reference_separate_intervals(poly, ivs):
    """Refine every interval to a quarter of the narrowest width, in Fractions,
    until all sit strictly inside (-2, 2) with gaps between them."""
    ivs = list(ivs)
    while ivs:
        if ivs[0][0] > -2 and ivs[-1][1] < 2 and all(a[1] < b[0] for a, b in zip(ivs, ivs[1:])):
            break
        width = min(hi - lo for lo, hi in ivs) / 4
        ivs = [sturm.refine_root(poly, lo, hi, width) for lo, hi in ivs]
    return ivs


def reference_isolation(d):
    """(intervals, sign_pattern) of isolate_circle_roots, with the degenerate
    intervals sorted in and every gap sign taken at a Fraction midpoint."""
    q = to_chebyshev(d)
    if sturm.degree(q) < 1:
        return (), (1 if q[0] > 0 else -1,)
    interior, chain = sturm.square_free_chain(q)
    degenerate = []
    for c in (-2, 2):
        if sturm.psign(interior, c) == 0:
            interior = sturm.divmod_int_exact(interior, (-c, 1))[0]
            degenerate.append((F(c), F(c)))
    if degenerate:
        chain = sturm.sturm_chain(interior)
    ivs = sturm.isolate_roots(chain, F(-2), F(2)) if sturm.degree(interior) >= 1 else []
    ivs = sorted(degenerate + reference_separate_intervals(interior, ivs))
    edges = [F(-2)] + [x for iv in ivs for x in iv] + [F(2)]
    signs = [sturm.psign(q, (lo + hi) / 2) if lo < hi else 0 for lo, hi in zip(edges[::2], edges[1::2])]
    return tuple(ivs), tuple(signs)


def reference_predicates(intervals):
    """interior_intervals, root_at_zero_turn, root_at_half_turn and
    circle_root_count by a scan of every interval."""
    degenerate = sum(1 for iv in intervals if iv[0] == iv[1])
    return (
        tuple(iv for iv in intervals if iv[0] != iv[1]),
        any(iv == (2, 2) for iv in intervals),
        any(iv == (-2, -2) for iv in intervals),
        2 * (len(intervals) - degenerate) + degenerate,
    )


def reference_gap_bounds(intervals):
    """Every consecutive separation over 13 and both square-root bounds, in Fractions."""
    interior, at_zero, at_half, _ = reference_predicates(intervals)
    desc = list(reversed(interior))
    bounds = [(a_lo - b_hi) / 13 for (a_lo, _a_hi), (_b_lo, b_hi) in zip(desc, desc[1:])]
    bounds.append(signature._sqrt_lower(interior[0][0] + 2) / (8 if at_half else 4))
    bounds.append(signature._sqrt_lower(2 - interior[-1][1]) / (7 if at_zero else 4))
    return bounds


def reference_min_root_gap(d):
    """min_root_gap off the torus products, from the reference predicates and bounds."""
    intervals, _ = reference_isolation(d)
    interior, _, _, count = reference_predicates(intervals)
    if count <= 1:
        return signature.GapBound(F(1), True)
    if not interior:
        return signature.GapBound(F(1, 2), True)
    return signature.GapBound(min(reference_gap_bounds(intervals)), False)


def with_end_roots(a, factors):
    """from_basis(a), a normalized polynomial of degree len(a), times x - 2
    and x + 2 as the factors ask, in Laurent form."""
    d = from_basis(a)
    for f in factors:
        d = d * f
    return d


end_root_polys = st.builds(
    with_end_roots,
    st.lists(st.integers(-5, 5), min_size=2, max_size=16),
    st.sampled_from([(), (X_MINUS_2,), (X_PLUS_2,), (X_MINUS_2, X_PLUS_2)]),
)


X_PLUS_3 = parse_poly("t^-1+3+t")  # its root x = -3 lies off the circle
D3 = torus_poly(3)


def with_factors(a, factors, square):
    """with_end_roots(a, factors), squared if asked."""
    d = with_end_roots(a, factors)
    return d * d if square else d


factored_polys = st.builds(
    with_factors,
    st.lists(st.integers(-5, 5), min_size=1, max_size=10),
    st.sampled_from(
        [(), (X_MINUS_2,), (X_PLUS_2,), (X_MINUS_2, X_PLUS_2), (X_PLUS_2, X_PLUS_2),
         (X_PLUS_2, X_MINUS_2, X_MINUS_2), (X_PLUS_3, X_PLUS_3), (D3, D3)]
    ),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(end_root_polys)
@example(parse_poly("t^-4-t^-2-t^2+t^4"))  # roots at x = -2, -1, 1, 2
@example(parse_poly("t^-3-t^-1-t+t^3"))  # roots at x = -2, 0, 2
@example(FIG3 * X_MINUS_2 * X_PLUS_2)  # no interior root
@example(from_basis([-4, 4, 5, 3, -2, -1, -1, -1, -4, 5, 2, -1, 2, 5]) * X_MINUS_2 * X_PLUS_2)
@example(parse_poly("-3"))  # a negative constant q
def test_integer_isolation_matches_the_fraction_reference(d):
    iso = isolate_circle_roots(d)
    assert (iso.intervals, iso.sign_pattern) == reference_isolation(d)
    assert (
        iso.interior_intervals(),
        iso.root_at_zero_turn(),
        iso.root_at_half_turn(),
        iso.circle_root_count(),
    ) == reference_predicates(iso.intervals)
    if torus_factorization(d) is None:
        assert min_root_gap(d) == reference_min_root_gap(d)


@settings(max_examples=60, deadline=None)
@given(factored_polys)
@example(from_basis([1]))  # no interior root
@example(from_basis([1]) * X_MINUS_2)  # q = (x - 3)(x - 2): only the root at x = 2
@example(from_basis([1]) ** 2)  # a repeated part, no circle root
@example(FIG3 * D3 * D3)  # a repeated part with circle roots
@example(FIG3 * X_PLUS_2 * X_PLUS_2)  # a repeated root at x = -2
@example(FIG3 * X_MINUS_2)
@example(from_basis([-1, 2, 1, 3]) * X_MINUS_2 * X_PLUS_2)
@example(parse_poly("-3"))  # a negative constant q
def test_carried_gap_signs_match_the_gap_midpoints(d):
    """The gap signs read at the gap midpoints, for square-free and repeated q
    alike, match the reference and hold on the whole gap: q has the same sign
    a quarter of the way into every nonempty gap."""
    iso = isolate_circle_roots(d)
    assert (iso.intervals, iso.sign_pattern) == reference_isolation(d)
    edges = [F(-2)] + [x for iv in iso.intervals for x in iv] + [F(2)]
    quarter = tuple(
        sturm.psign(iso.poly, lo + (hi - lo) / 4) if lo < hi else 0 for lo, hi in zip(edges[::2], edges[1::2])
    )
    assert iso.sign_pattern == quarter
