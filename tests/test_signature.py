import functools
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf, cos, pi

from gordian.circle import arcs_of_generator
from gordian.errors import DomainError, NonSimpleRootError
from gordian.knots import FormalKnot, UNKNOT, generator_knot
from gordian.laurent import ONE, parse_poly, torus_poly
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
    mp.dps = 40
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

    mp.dps = 40
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
    from gordian.signature import _cos_isolation

    mp.dps = 40
    for n in (3, 4, 5, 6, 7, 12, 30, 210):
        intervals, poly = _cos_isolation(n)
        assert len(intervals) == ((n - 1) // 2 if n % 2 else n // 2 - 1)
        from gordian import sturm

        for j, (lo, hi) in enumerate(intervals, start=1):
            x = 2 * cos(2 * pi * mpf(j) / n)
            assert mpf(lo.numerator) / lo.denominator < x < mpf(hi.numerator) / hi.denominator
            assert sturm.peval(poly, lo) != 0 and sturm.peval(poly, hi) != 0


def test_signature_general_path_matches_sign_oracle():
    # random normalized polynomials against direct high-precision sign
    # evaluation at random rational turns
    from gordian.laurent import from_basis, to_chebyshev

    rng = random.Random(41)
    mp.dps = 50
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
    mp.dps = 50
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
    mp.dps = 30
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
