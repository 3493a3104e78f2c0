import random
import sys
from fractions import Fraction

import pytest

from gordian import circle
from gordian.errors import DomainError, MaterializationLimitError
from gordian.knots import (
    FormalKnot,
    GeneratorId,
    UNKNOT,
    alexander,
    connected_sum,
    distance_lower_bound,
    generator_knot,
    mirror,
    multiplicities,
    net_coefficients,
    p_sequence,
    root_gap,
    signed_multiplicities,
    sup_signature_difference,
    unknotting_upper_bound,
)
from gordian.laurent import torus_poly

F = Fraction
POOL = [3, 5, 7, 9, 11, 15, 21]


def random_knot(rng, max_gens=4, pool=POOL):
    return FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(max_gens + 1)))


# ---------------------------------------------------------------------------
# generators and multiset structure

def test_generator_id_validation():
    with pytest.raises(DomainError):
        GeneratorId(4)
    with pytest.raises(DomainError):
        GeneratorId(1)
    assert GeneratorId(3).mirror() == GeneratorId(3, True)


def test_messages_past_the_digit_limit(monkeypatch):
    """Past Python's limit for integer string conversion p is described by
    its bit length, not by a bare ValueError from formatting the message;
    below it the messages keep p in decimal."""
    monkeypatch.delenv("GORDIAN_MAX_P", raising=False)
    with pytest.raises(DomainError, match="^p must be odd, got 4$"):
        GeneratorId(4)
    with pytest.raises(DomainError, match="^p must be at least 3, got 1$"):
        GeneratorId(1)
    with pytest.raises(MaterializationLimitError, match=r"^torus polynomial for p=1000001 exceeds"):
        torus_poly(1000001)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(DomainError, match="^p must be odd, got a number of 16610 bits$"):
            GeneratorId(10**5000)
        with pytest.raises(DomainError, match="^p must be at least 3, got a number of 16610 bits$"):
            GeneratorId(-(10**5000) - 1)
        huge = 10**5000 + 1
        guard = r" exceeds the materialization guard \(1000000\)"
        for build, text in (
            (lambda: torus_poly(huge), "torus polynomial for p=a number of 16610 bits"),
            (lambda: circle.breakpoint_grid([huge, 3]), r"merging breakpoints of generators \[3, a number of 16610 bits\]"),
            (lambda: alexander(generator_knot(huge)), "Alexander polynomial of degree a number of 16609 bits"),
        ):
            with pytest.raises(MaterializationLimitError, match=f"^{text}{guard}"):
                build()
    finally:
        sys.set_int_max_str_digits(saved)


def test_alexander_guard_names_the_override(monkeypatch):
    monkeypatch.delenv("GORDIAN_MAX_P", raising=False)
    with pytest.raises(MaterializationLimitError) as got:
        alexander(FormalKnot([700001] * 3))
    assert str(got.value).endswith("; raise GORDIAN_MAX_P to override")


def test_p_sequence_values():
    assert p_sequence(1) == 3
    assert [p_sequence(n) for n in (2, 3, 4)] == [15, 105, 945]
    assert p_sequence(29) == 59 * p_sequence(28)
    for n in range(2, 31):
        assert p_sequence(n) == p_sequence(n - 1) * (2 * n + 1)
        assert p_sequence(n) // p_sequence(n - 1) >= 3
    with pytest.raises(DomainError):
        p_sequence(0)


def test_connected_sum_identity_and_commutativity():
    k = generator_knot(3) + generator_knot(5, True)
    assert connected_sum(UNKNOT, k) == k
    assert connected_sum(k, UNKNOT) == k
    a, b = generator_knot(7), generator_knot(3)
    assert connected_sum(a, b) == connected_sum(b, a)


def test_mirror_involution_and_no_cancellation():
    k = generator_knot(3) + generator_knot(15, True)
    assert mirror(mirror(k)) == k
    assert connected_sum(generator_knot(3), mirror(generator_knot(3))) != UNKNOT


def test_multiset_keeps_multiplicity():
    k = generator_knot(3) + generator_knot(3)
    assert len(k) == 2
    assert multiplicities(k) == {3: 2}
    assert signed_multiplicities(k) == {3: 2}
    assert signed_multiplicities(generator_knot(3) + generator_knot(3, True)) == {}


def test_net_coefficients_are_the_signed_multiplicities_of_k1_and_mirrored_k2():
    rng = random.Random(73)
    for _ in range(300):
        k1, k2 = random_knot(rng), random_knot(rng)
        assert net_coefficients(k1, k2) == signed_multiplicities(k1 + k2.mirror())
        assert net_coefficients(k1, UNKNOT) == signed_multiplicities(k1)
        assert net_coefficients(k1, k2) == {p: -c for p, c in net_coefficients(k2, k1).items()}
    k = generator_knot(3) + generator_knot(5, True)
    assert net_coefficients(k, k) == {}
    assert net_coefficients(k, generator_knot(5)) == {3: 1, 5: -2}


def test_serialization_round_trip():
    k = generator_knot(3) + generator_knot(3) + generator_knot(p_sequence(29), True)
    records = k.records()
    assert records[0] == {"p": "3", "mirrored": False, "multiplicity": 2}
    assert records[1]["p"] == str(p_sequence(29))
    assert FormalKnot.from_records(records) == k
    assert FormalKnot.from_json(k.to_json()) == k


# ---------------------------------------------------------------------------
# Alexander polynomials

def test_alexander_of_unknot_and_generator():
    assert alexander(UNKNOT)(1) == 1
    assert alexander(generator_knot(3)) == torus_poly(3)
    assert alexander(generator_knot(3, True)) == torus_poly(3)


def test_alexander_multiplicative():
    rng = random.Random(59)
    for _ in range(40):
        k1, k2 = random_knot(rng), random_knot(rng)
        assert alexander(k1 + k2) == alexander(k1) * alexander(k2)


# ---------------------------------------------------------------------------
# distance bounds

def test_distance_lower_bound_examples():
    k3 = generator_knot(3)
    assert distance_lower_bound(k3, k3) == 0
    assert distance_lower_bound(UNKNOT, k3) == 1
    assert distance_lower_bound(k3, mirror(k3)) == 2


def test_unknotting_upper_bound_examples():
    k3 = generator_knot(3)
    assert unknotting_upper_bound(k3, k3) == 0
    assert unknotting_upper_bound(UNKNOT, k3 + generator_knot(15, True)) == 2
    assert unknotting_upper_bound(k3, k3 + generator_knot(5)) == 1
    assert unknotting_upper_bound(k3, mirror(k3)) == 2


def test_bound_sandwich_and_pseudometric():
    rng = random.Random(61)
    for _ in range(250):
        k1, k2, k3 = (random_knot(rng) for _ in range(3))
        lo = distance_lower_bound(k1, k2)
        assert 0 <= lo <= unknotting_upper_bound(k1, k2)
        assert lo == distance_lower_bound(k2, k1)
        assert distance_lower_bound(k1, k3) <= lo + distance_lower_bound(k2, k3)
        assert distance_lower_bound(k1, k1) == 0


def test_sup_difference_witness_is_attained():
    from gordian.signature import eval_formal_signature

    rng = random.Random(67)
    for _ in range(100):
        k1, k2 = random_knot(rng), random_knot(rng)
        sup, theta = sup_signature_difference(k1, k2)
        if theta is None:
            assert signed_multiplicities(k1) == signed_multiplicities(k2)
        else:
            assert abs(eval_formal_signature(k1, theta) - eval_formal_signature(k2, theta)) == sup


def test_distance_bound_cancels_shared_generators():
    huge = generator_knot(p_sequence(29))
    k1 = huge + generator_knot(3)
    k2 = huge + generator_knot(5)
    # the common double-factorial generator cancels, so this stays materializable
    assert distance_lower_bound(k1, k2) == 1
    # without cancellation the guard must refuse to materialize
    with pytest.raises(DomainError):
        distance_lower_bound(k1, mirror(k2))


# ---------------------------------------------------------------------------
# root gaps

def test_root_gap_examples():
    assert root_gap(UNKNOT) == 1
    assert root_gap(generator_knot(3)) == F(1, 3)
    assert root_gap(generator_knot(3) + generator_knot(5)) == F(1, 15)
    assert root_gap(generator_knot(3) + generator_knot(3, True)) == F(1, 3)


def test_root_gap_matches_min_root_gap_of_alexander():
    from gordian.signature import min_root_gap

    rng = random.Random(71)
    for _ in range(25):
        k = random_knot(rng)
        gap = min_root_gap(alexander(k))
        assert gap.exact and gap.value == root_gap(k)
