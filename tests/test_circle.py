import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gordian.circle import (
    ArcSet,
    _arc_pieces,
    arcs_of_generator,
    as_turn,
    generator_breakpoints,
    generator_sign_at,
    independence_witness,
    is_empty,
    sign_at_turn,
)
from gordian.errors import DomainError, MaterializationLimitError, SpacingError
from gordian.knots import FormalKnot, p_sequence
from gordian.signature import eval_formal_signature

F = Fraction


def random_arcset(rng, max_arcs=3, denominator_pool=(2, 3, 4, 5, 6, 8, 12)):
    arcs = []
    for _ in range(rng.randrange(max_arcs + 1)):
        den = rng.choice(denominator_pool)
        lo = F(rng.randrange(den), den)
        length = F(rng.randrange(1, den), den)
        arcs.append((lo, lo + length))
    return ArcSet(arcs)


# ---------------------------------------------------------------------------
# canonical form

def test_canonicalization_merges_touching_and_overlapping():
    s = ArcSet([(F(0), F(1, 2)), (F(1, 2), F(3, 4))])
    assert s.arcs == ((F(0), F(3, 4)),)
    s = ArcSet([(F(0), F(1, 2)), (F(1, 4), F(5, 8))])
    assert s.arcs == ((F(0), F(5, 8)),)


def test_canonicalization_wraps_across_seam():
    s = ArcSet([(F(5, 6), F(7, 6))])
    assert s.arcs == ((F(5, 6), F(7, 6)),)
    # same arc specified with hi already reduced mod 1
    assert ArcSet([(F(5, 6), F(1, 6))]) == s


def test_union_covering_circle_regularizes_to_full():
    s = ArcSet([(F(0), F(1, 2)), (F(1, 2), F(1))])
    assert s.full
    assert s == ArcSet.full_circle()
    assert s.measure() == 1


def test_arc_with_equal_endpoints_rejected():
    with pytest.raises(DomainError):
        ArcSet([(F(1, 3), F(1, 3))])


def test_witness_and_is_empty():
    s = ArcSet([(F(1, 6), F(5, 6))])
    empty, w = is_empty(s)
    assert not empty and w == F(1, 2)
    assert s.contains(w)
    assert is_empty(ArcSet.empty()) == (True, None)
    assert is_empty(ArcSet.full_circle()) == (False, F(0))


def test_witness_is_midpoint_of_leftmost_arc():
    s = ArcSet([(F(7, 10), F(9, 10)), (F(1, 10), F(3, 10))])
    assert s.witness() == F(2, 10)


def test_contains_open_endpoints():
    s = ArcSet([(F(1, 6), F(5, 6))])
    assert not s.contains(F(1, 6)) and not s.contains(F(5, 6))
    assert s.contains(F(1, 2))
    wrap = ArcSet([(F(5, 6), F(7, 6))])
    assert wrap.contains(F(0)) and wrap.contains(F(11, 12))
    assert not wrap.contains(F(5, 6))


# ---------------------------------------------------------------------------
# boolean algebra

def test_complement_example():
    a3 = arcs_of_generator(3)
    assert a3.complement() == ArcSet([(F(5, 6), F(7, 6))])
    assert a3.intersect(a3.complement()).is_empty()


def test_intersect_with_full_is_identity():
    rng = random.Random(5)
    for _ in range(50):
        s = random_arcset(rng)
        assert ArcSet.full_circle().intersect(s) == s


def test_boolean_algebra_laws():
    rng = random.Random(29)
    for _ in range(250):
        a, b = random_arcset(rng), random_arcset(rng)
        assert (~(a | b)) == (~a & ~b)
        assert (~(a & b)) == (~a | ~b)
        assert ~~a == a
        assert (a & (a | b)) == a
        assert (a | (a & b)) == a
        assert (a & ~a).is_empty()
        assert (a | ~a) == ArcSet.full_circle()


def reference_intersect(a, b):
    """Pairwise intersection of the arcs split at the seam: the O(n m) loop
    that ArcSet.intersect was before it became ~(~a | ~b)."""
    if a.full:
        return b
    if b.full:
        return a
    pieces = []
    mine = [seg for lo, hi in a.arcs for seg in _arc_pieces(lo, hi)]
    theirs = [seg for lo, hi in b.arcs for seg in _arc_pieces(lo, hi)]
    for a_lo, a_hi in mine:
        for b_lo, b_hi in theirs:
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo < hi:
                pieces.append((lo, hi))
    return ArcSet(pieces)


@st.composite
def arc_sets(draw):
    if draw(st.integers(0, 9)) == 0:
        return ArcSet.full_circle()
    arcs = []
    for _ in range(draw(st.integers(0, 5))):
        den = draw(st.integers(2, 24))
        lo = F(draw(st.integers(0, den - 1)), den)
        arcs.append((lo, lo + F(draw(st.integers(1, den - 1)), den)))
    return ArcSet(arcs)


@settings(max_examples=400, deadline=None)
@given(arc_sets(), arc_sets())
def test_intersection_matches_the_pairwise_reference(a, b):
    assert a & b == reference_intersect(a, b) == b & a


odd_small_p = st.integers(1, 52).map(lambda n: 2 * n + 1)


@settings(max_examples=100, deadline=None)
@given(odd_small_p, odd_small_p)
def test_generator_arc_intersection_matches_the_pairwise_reference(p, q):
    a, b = arcs_of_generator(p), arcs_of_generator(q)
    assert a & b == reference_intersect(a, b)
    assert (a & ~b) == reference_intersect(a, ~b)


def test_generator_arc_intersection_near_1000_matches_the_pairwise_reference():
    a, b = arcs_of_generator(1001), arcs_of_generator(999)
    assert a & b == reference_intersect(a, b)


def test_measure_additive_on_disjoint_pieces():
    a = ArcSet([(F(0), F(1, 4))])
    b = ArcSet([(F(1, 2), F(3, 4))])
    assert (a | b).measure() == F(1, 2)


# ---------------------------------------------------------------------------
# generator arcs

def test_arcs_of_generator_examples():
    assert arcs_of_generator(3) == ArcSet([(F(1, 6), F(5, 6))])
    assert arcs_of_generator(5) == ArcSet([(F(1, 10), F(3, 10)), (F(7, 10), F(9, 10))])


def test_arcs_symmetric_under_reflection():
    for p in (3, 5, 15, 105):
        s = arcs_of_generator(p)
        reflected = ArcSet([(-hi, -lo) for lo, hi in s.arcs])
        assert reflected == s


def test_arcs_agree_with_sign_formula():
    rng = random.Random(31)
    for p in (3, 5, 15, 105):
        s = arcs_of_generator(p)
        for _ in range(1000):
            theta = F(rng.randrange(1, 2048), 2048)
            sign = generator_sign_at(p, theta)
            if sign == -1:
                assert s.contains(theta)
            elif sign == 1:
                assert not s.contains(theta)


def measure_oracle(p):
    """Walk the breakpoints and add up the lengths of the negative arcs."""
    bps = generator_breakpoints(p)
    total = F(0)
    for i, b in enumerate(bps):
        nxt = bps[i + 1] if i + 1 < len(bps) else bps[0] + 1
        mid = as_turn((b + nxt) / 2)
        if generator_sign_at(p, mid) == -1:
            total += nxt - b
    return total


def test_measure_of_generator_arcs():
    # (p-1)/(2p) when the doubled arc at 1/2 is positive (p = 1 mod 4),
    # (p+1)/(2p) when it is negative (p = 3 mod 4).
    for p in (3, 5, 13, 15, 105, 945):
        expected = F(p - 1, 2 * p) if p % 4 == 1 else F(p + 1, 2 * p)
        assert arcs_of_generator(p).measure() == expected
        assert measure_oracle(p) == expected


def test_generator_breakpoints_skip_half():
    assert generator_breakpoints(3) == [F(1, 6), F(5, 6)]
    assert F(1, 2) not in generator_breakpoints(105)
    assert len(generator_breakpoints(105)) == 104


def test_materialization_guard(monkeypatch):
    monkeypatch.setenv("GORDIAN_MAX_P", "1000")
    with pytest.raises(MaterializationLimitError):
        arcs_of_generator(10**6 + 1)
    monkeypatch.setenv("GORDIAN_MAX_P", "2000000")
    assert generator_sign_at(10**6 + 1, F(1, 3)) in (-1, 0, 1)


# ---------------------------------------------------------------------------
# sign formula

def test_generator_sign_examples():
    assert generator_sign_at(3, F(2, 5)) == -1
    assert generator_sign_at(3, F(1, 6)) == 0
    assert generator_sign_at(3, F(1, 2)) == -1


def test_sign_at_half_matches_exact_evaluation():
    from gordian.laurent import torus_poly

    for p in (3, 5, 7, 9, 11, 13):
        d = torus_poly(p)
        value = d(-1)
        assert value == (p if (p - 1) // 2 % 2 == 0 else -p)
        assert generator_sign_at(p, F(1, 2)) == (1 if value > 0 else -1)


def test_sign_is_zero_exactly_at_breakpoints():
    for p in (3, 5, 15):
        for b in generator_breakpoints(p):
            assert generator_sign_at(p, b) == 0
        assert generator_sign_at(p, F(1, 2)) != 0


def test_sign_for_double_factorial_p():
    p = p_sequence(29)  # 59!!, far beyond any materialization
    assert p % 2 == 1 and p > 10**30
    assert generator_sign_at(p, F(1, 2)) in (-1, 1)
    b = F(2 * 10**29 + 1, 2 * p)
    assert generator_sign_at(p, b) == 0
    # crossing a genuine breakpoint flips the sign
    eps = F(1, 10 * p)
    assert generator_sign_at(p, b - eps) == -generator_sign_at(p, b + eps)


# ---------------------------------------------------------------------------
# integer sign kernel against the Fraction formula it replaced

HALF = F(1, 2)


def reference_generator_sign_at(p, theta):
    """Counts the roots (2k+1)/(2p) below theta, less the half turn, with
    Fractions."""
    t = as_turn(theta)
    if t == HALF:
        return -1 if ((p - 1) // 2) % 2 else 1
    u = p * t + HALF
    if u.denominator == 1:
        return 0
    crossings = int(u.numerator // u.denominator) - (1 if t > HALF else 0)
    return -1 if crossings % 2 else 1


odd_p = st.one_of(st.integers(1, 30), st.integers(1, 5 * 10**29)).map(lambda n: 2 * n + 1)


@st.composite
def turns_near(draw, p):
    """A turn anywhere on the real line: arbitrary, a root of D_p, the half
    turn, or next to a root, each shifted by whole turns."""
    shift = draw(st.integers(-3, 3))
    root = F(2 * draw(st.integers(0, p - 1)) + 1, 2 * p)
    kind = draw(st.sampled_from(["any", "root", "half", "near root"]))
    if kind == "any":
        return draw(st.fractions(min_value=-3, max_value=3))
    if kind == "root":
        return root + shift
    if kind == "half":
        return HALF + shift
    return root + shift + F(draw(st.sampled_from([-1, 1])), draw(st.integers(2, 10**40)))


@st.composite
def sign_cases(draw):
    p = draw(odd_p)
    return p, draw(turns_near(p))


@settings(max_examples=400, deadline=None)
@given(sign_cases(), st.integers(1, 10**6))
def test_sign_kernel_matches_the_fraction_formula(case, scale):
    p, theta = case
    want = reference_generator_sign_at(p, theta)
    assert generator_sign_at(p, theta) == want
    t = as_turn(theta)
    assert sign_at_turn(p, scale * t.numerator, scale * t.denominator) == want


@st.composite
def knots_and_turns(draw):
    gens = draw(st.lists(st.tuples(odd_p, st.booleans()), max_size=6))
    p = draw(st.sampled_from([p for p, _ in gens] or [3]))
    return gens, draw(turns_near(p))


@settings(max_examples=200, deadline=None)
@given(knots_and_turns())
def test_formal_signature_sums_the_reference_signs(case):
    gens, theta = case
    want = sum((-1 if mirrored else 1) * (1 - reference_generator_sign_at(p, theta)) for p, mirrored in gens)
    assert eval_formal_signature(FormalKnot(gens), theta) == want


def test_sign_kernel_rejects_turns_outside_one_turn_and_even_p():
    assert sign_at_turn(3, 2, 10) == -1
    for num, den in ((1, 1), (-1, 2), (0, 0)):
        with pytest.raises(DomainError):
            sign_at_turn(3, num, den)
    with pytest.raises(DomainError):
        sign_at_turn(4, 1, 3)


# ---------------------------------------------------------------------------
# independence witness

def test_witness_examples():
    assert independence_witness([3], [-1]) == F(1, 2)
    theta = independence_witness([3, 15], [-1, 1])
    assert F(1, 6) < theta < F(5, 6)
    assert generator_sign_at(3, theta) == -1
    assert generator_sign_at(15, theta) == 1


def test_witness_all_patterns_depth_four():
    ps = [3, 15, 105, 945]
    for mask in range(16):
        signs = [1 if mask & (1 << i) else -1 for i in range(4)]
        theta = independence_witness(ps, signs)
        for p, s in zip(ps, signs):
            assert generator_sign_at(p, theta) == s
        for p, s in zip(ps, signs):
            if p <= 105:
                assert arcs_of_generator(p).contains(theta) == (s == -1)


def test_witness_all_patterns_canonical_six():
    ps = [p_sequence(n) for n in range(1, 7)]
    for mask in range(64):
        signs = [1 if mask & (1 << i) else -1 for i in range(6)]
        theta = independence_witness(ps, signs)
        assert all(generator_sign_at(p, theta) == s for p, s in zip(ps, signs))


def test_witness_spacing_failure_reported():
    # ratio 5/3 < 3: the positive arc of 3 is too short to hold a full
    # negative arc of 5, even though the true intersection is nonempty
    with pytest.raises(SpacingError):
        independence_witness([3, 5], [1, -1])


def test_witness_spacing_failure_past_the_digit_limit():
    """Past Python's limit for integer string conversion the SpacingError
    message describes p and the interval ends by their bit lengths instead of
    raising a bare ValueError; below it the message keeps them in decimal."""
    with pytest.raises(SpacingError, match=r"^no full sign -1 arc of generator 5 fits inside \(5/6, 7/6\); successive"):
        independence_witness([3, 5], [1, -1])
    p = p_sequence(1500)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SpacingError, match=(
            r"^no full sign \+1 arc of generator a number of 15175 bits fits inside "
            r"\(a number of 15174 bits, a number of 15173 bits\); successive"
        )):
            independence_witness([p, p + 2], [1, 1])
    finally:
        sys.set_int_max_str_digits(saved)


def test_witness_input_validation():
    with pytest.raises(DomainError):
        independence_witness([3, 15], [-1])
    with pytest.raises(DomainError):
        independence_witness([15, 3], [-1, 1])
    with pytest.raises(DomainError):
        independence_witness([3], [2])
    with pytest.raises(DomainError):
        independence_witness([], [])
    with pytest.raises(DomainError):
        independence_witness([4], [1])
