"""The integer breakpoint grid of torus products against the Fraction code it
replaced, and work counters that fail if the quadratic paths come back."""

import functools
import re
import tracemalloc
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gordian import circle, graph, knots, laurent, signature
from gordian.errors import MaterializationLimitError, NonSimpleRootError
from gordian.knots import FormalKnot, alexander, generator_knot, mirror, p_sequence
from gordian.laurent import torus_poly
from gordian.limits import materialization_limit
from gordian.signature import GapBound, min_root_gap, signature_of_poly

F = Fraction
# 3, 9, 15 and 21 share the divisor 3; 15 and 5 share 5; 21 and 7 share 7.
POOL = [3, 5, 7, 9, 11, 13, 15, 21]


# ---------------------------------------------------------------------------
# the replaced Fraction code, kept as references

def reference_generator_breakpoints(p):
    """The circle roots (2k+1)/(2p) of D_p without the half turn, one by one."""
    return [F(2 * k + 1, 2 * p) for k in range(p) if k != (p - 1) // 2]


def reference_merged_breakpoints(ps):
    """Sorted distinct circle breakpoints, one Fraction set for all p."""
    limit = materialization_limit()
    ps = sorted(set(ps))
    if sum(ps) > limit:
        raise MaterializationLimitError(
            f"merging breakpoints of generators {ps} exceeds the materialization guard ({limit}); "
            "raise GORDIAN_MAX_P to override"
        )
    merged = set()
    for p in ps:
        merged.update(reference_generator_breakpoints(p))
    return sorted(merged)


def reference_sup_signature_difference(k1, k2):
    """Evaluates every generator's sign at the midpoint of every merged arc."""
    diff = knots.signed_multiplicities(k1)
    for p, c in knots.signed_multiplicities(k2).items():
        diff[p] = diff.get(p, 0) - c
    diff = {p: c for p, c in diff.items() if c}
    if not diff:
        return 0, None
    bps = reference_merged_breakpoints(diff)
    best, best_theta = 0, None
    for i, b in enumerate(bps):
        nxt = bps[(i + 1) % len(bps)]
        if nxt <= b:
            nxt += 1
        mid = circle.as_turn((b + nxt) / 2)
        value = abs(sum(c * (1 - circle.generator_sign_at(p, mid)) for p, c in diff.items()))
        if value > best:
            best, best_theta = value, mid
    return best, best_theta


def reference_min_gap(bps):
    if len(bps) <= 1:
        return F(1)
    best = bps[0] + 1 - bps[-1]
    for a, b in zip(bps, bps[1:]):
        best = min(best, b - a)
    return best


def reference_root_gap(k):
    if k.is_unknot():
        return F(1)
    return reference_min_gap(reference_merged_breakpoints(g.p for g in k.generators))


def reference_torus_min_root_gap(ps):
    """The torus branch of min_root_gap: per-generator breakpoint sets."""
    if not ps:
        return GapBound(F(1), True)
    bps = sorted({b for p in ps for b in reference_generator_breakpoints(p)})
    return GapBound(reference_min_gap(bps), True)


def reference_signature_of_torus_product(ps):
    """Breakpoints with a duplicate check, values from the product of the
    generator signs at every arc midpoint."""
    if not ps:
        return signature.StepFun.constant(0)
    all_bps = []
    for p in ps:
        all_bps.extend(reference_generator_breakpoints(p))
    if len(set(all_bps)) != len(all_bps):
        raise NonSimpleRootError(f"torus product over p = {tuple(ps)} has repeated circle roots")
    bps = sorted(all_bps)
    values = []
    for i, b in enumerate(bps):
        nxt = bps[i + 1] if i + 1 < len(bps) else bps[0] + 1
        mid = circle.as_turn((b + nxt) / 2)
        sign = 1
        for p in ps:
            sign *= circle.generator_sign_at(p, mid)
        values.append(1 - sign)
    return signature.StepFun(bps, values)


# ---------------------------------------------------------------------------
# properties

generators = st.tuples(st.sampled_from(POOL), st.booleans())
formal_knots = st.lists(generators, max_size=5).map(FormalKnot)
torus_ps = st.lists(st.sampled_from(POOL), max_size=4)
# Odd p up to 105 with repeats; pairs such as 9 and 15, 15 and 105 or 21 and
# 35 share a divisor without one dividing the other.
odd_up_to_105 = st.integers(1, 52).map(lambda i: 2 * i + 1)
wide_knots = st.lists(st.tuples(odd_up_to_105, st.booleans()), max_size=6).map(FormalKnot)


@settings(max_examples=150, deadline=None)
@given(formal_knots, formal_knots)
def test_sup_signature_difference_matches_midpoint_scan(k1, k2):
    assert knots.sup_signature_difference(k1, k2) == reference_sup_signature_difference(k1, k2)


@settings(max_examples=100, deadline=None)
@given(formal_knots)
def test_root_gaps_match_merged_breakpoints(k):
    assert knots.root_gap(k) == reference_root_gap(k)
    ps = laurent.torus_factorization(alexander(k))
    assert min_root_gap(alexander(k)) == reference_torus_min_root_gap(ps)


@settings(max_examples=200, deadline=None)
@given(wide_knots)
def test_closed_form_root_gaps_match_merged_breakpoints(k):
    assert knots.root_gap(k) == reference_root_gap(k)


def odd_primes_up_to(n):
    sieve = [True] * (n + 1)
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [p for p in range(3, n + 1) if sieve[p]]


def test_root_gap_of_many_coprime_generators_is_lazy():
    """The grid of these 429 primes has an lcm of 1274 digits."""
    ps = odd_primes_up_to(3000)
    assert len(ps) == 429
    k = FormalKnot(ps)
    tracemalloc.start()
    try:
        gap = knots.root_gap(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gap == F(1, 2971 * 2999) == F(1, 8910029)
    assert peak < 2**20


@settings(max_examples=100, deadline=None)
@given(torus_ps)
def test_breakpoint_grid_matches_fraction_breakpoints(ps):
    n, grid = circle.breakpoint_grid(ps)
    assert sorted({F(x, n) for x, _ in grid}) == reference_merged_breakpoints(ps)
    assert grid == sorted(grid)
    for p in set(ps):
        assert [F(x, n) for x, q in grid if q == p] == reference_generator_breakpoints(p)
        assert circle.generator_breakpoints(p) == reference_generator_breakpoints(p)


@settings(max_examples=100, deadline=None)
@given(torus_ps)
def test_torus_signature_matches_sign_products(ps):
    try:
        reference = reference_signature_of_torus_product(ps)
    except NonSimpleRootError as exc:
        with pytest.raises(NonSimpleRootError, match=re.escape(str(exc))):
            signature._signature_of_torus_product(ps)
        return
    got = signature._signature_of_torus_product(ps)
    assert got.breakpoints == reference.breakpoints
    assert got.values == reference.values


def test_examples_of_shared_divisors_mirrors_and_multiplicity():
    k3, k5, k9, k15, k21 = (generator_knot(p) for p in (3, 5, 9, 15, 21))
    cases = [
        (k3 + k9, k15 + k21),
        (k3 + mirror(k3), k15),
        (k3 + k3 + k3, mirror(k9) + mirror(k9)),
        (k5 + k15, mirror(k21) + k3),
        (FormalKnot(), k21),
        (FormalKnot(), FormalKnot()),
    ]
    for k1, k2 in cases:
        assert knots.sup_signature_difference(k1, k2) == reference_sup_signature_difference(k1, k2)
        assert knots.root_gap(k1 + k2) == reference_root_gap(k1 + k2)
    assert knots.sup_signature_difference(k3 + k3, FormalKnot()) == (4, F(1, 2))
    assert knots.root_gap(FormalKnot()) == 1
    assert knots.root_gap(k3 + k9) == F(1, 9)
    for ps, gap in (((9, 15), 45), ((15, 105, 15), 105), ((21, 35, 3), 105), ((3, 9, 27, 5), 135)):
        assert knots.root_gap(FormalKnot(ps)) == reference_root_gap(FormalKnot(ps)) == F(1, gap)


@pytest.mark.parametrize("ps", [(3, 3), (3, 15), (5, 15, 7)])
def test_repeated_circle_roots_rejected(ps):
    d = laurent.ONE
    for p in ps:
        d = d * torus_poly(p)
    message = f"torus product over p = {ps} has repeated circle roots"
    for sig in (reference_signature_of_torus_product, signature._signature_of_torus_product):
        with pytest.raises(NonSimpleRootError) as info:
            sig(ps)
        assert str(info.value) == message
    with pytest.raises(NonSimpleRootError):
        signature_of_poly(d)


def test_guard_refuses_a_huge_uncancelled_generator():
    """The sup sweep still materializes the grid and is guarded; the root
    gap is in closed form and needs no guard."""
    huge = generator_knot(p_sequence(29))
    k1, k2 = huge + generator_knot(3), mirror(huge) + generator_knot(5)
    with pytest.raises(MaterializationLimitError) as got:
        knots.sup_signature_difference(k1, k2)
    with pytest.raises(MaterializationLimitError) as expected:
        reference_sup_signature_difference(k1, k2)
    assert str(got.value) == str(expected.value)
    assert str(got.value).startswith("merging breakpoints of generators [3, ")
    assert knots.root_gap(k1) == F(1, p_sequence(29))


# ---------------------------------------------------------------------------
# work counters: deterministic, no timings

def counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_torus_product_work_counters(monkeypatch):
    k = generator_knot(3) + generator_knot(5) + generator_knot(7)
    others = [FormalKnot(), mirror(generator_knot(3)), generator_knot(5) + generator_knot(9, True)]
    expected = [reference_sup_signature_difference(k, other) for other in others]
    d = alexander(k)
    coeff_calls, sign_calls, chebyshev_calls = [], [], []
    counting(monkeypatch, laurent.LaurentPoly, "coeff", coeff_calls)
    counting(monkeypatch, circle, "generator_sign_at", sign_calls)
    counting(monkeypatch, laurent, "to_chebyshev", chebyshev_calls)

    # With a cold divisor cache every trial divisor is converted, without coeff.
    laurent._torus_chebyshev.cache_clear()
    assert laurent.torus_factorization(d) == (3, 5, 7)
    assert coeff_calls == []
    assert len(chebyshev_calls) > 1

    # A repeated factorization converts d itself and no divisor.
    chebyshev_calls.clear()
    assert laurent.torus_factorization(d) == (3, 5, 7)
    assert chebyshev_calls == [(d,)]

    assert [knots.sup_signature_difference(k, other) for other in others] == expected
    assert sign_calls == []


def test_root_gaps_and_detours_build_no_breakpoint_grid(monkeypatch):
    k = generator_knot(3) + generator_knot(9) + generator_knot(15, True)
    d = alexander(k)
    grid_calls = []
    counting(monkeypatch, circle, "breakpoint_grid", grid_calls)
    assert knots.root_gap(k) == F(1, 45)
    assert min_root_gap(d) == GapBound(F(1, 45), True)
    assert graph.choose_detour([k, generator_knot(5) + generator_knot(7)]) == 47
    assert grid_calls == []
