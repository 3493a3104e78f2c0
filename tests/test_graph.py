import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gordian import circle, signature
from gordian.errors import DomainError, MaterializationLimitError
from gordian.graph import (
    DetourPlan,
    DetourReport,
    build_detour,
    certify_all,
    certify_pair,
    choose_detour,
    distinctness_certificate,
    edge_number,
    format_vertex,
    meet,
    parse_vertex,
    phi,
    tree_distance,
    verify_certificate,
    verify_detour,
    vertices_to_depth,
)
from gordian.knots import FormalKnot, UNKNOT, generator_knot, mirror, p_sequence, signed_multiplicities
from gordian.signature import eval_formal_signature

F = Fraction


# ---------------------------------------------------------------------------
# tree basics

def test_parse_and_format_vertex():
    assert parse_vertex("root") == ()
    assert parse_vertex("") == ()
    assert parse_vertex("0,1,1") == (0, 1, 1)
    assert format_vertex((0, 1)) == "0,1"
    assert format_vertex(()) == "root"
    with pytest.raises(DomainError):
        parse_vertex("0,x")


def test_meet_and_distance():
    assert meet((0, 1), (0, 0)) == (0,)
    assert tree_distance((0, 1), (0, 0)) == 2
    assert tree_distance((), (1, 1, 1)) == 3
    assert tree_distance((0,), (0,)) == 0


def test_edge_number_binary_examples():
    assert edge_number((0,)) == 1
    assert edge_number((1,)) == 2
    assert edge_number((0, 0)) == 3
    assert edge_number((0, 1)) == 4
    assert edge_number((1, 1)) == 6
    assert edge_number((0, 0, 0)) == 7
    with pytest.raises(DomainError):
        edge_number(())


def test_edge_number_wider_valency():
    with pytest.raises(DomainError):
        edge_number((2,), valency=2)
    assert edge_number((2,), valency=3) == 3
    assert edge_number((0, 0), valency=3) == 4
    seen = {edge_number(v, valency=3) for v in vertices_to_depth(3, 3) if v}
    assert len(seen) == len(vertices_to_depth(3, 3)) - 1


def test_edge_number_infinite_valency_injective():
    vs = [(i,) for i in range(6)]
    vs += [(i, j) for i in range(4) for j in range(4)]
    vs += [(0, 1, 2), (2, 1, 0), (1, 1, 1)]
    seen = [edge_number(v, valency=None) for v in vs]
    assert len(set(seen)) == len(seen)
    assert all(n >= 1 for n in seen)


def reference_edge_number(v):
    """The infinite-valency numbering by loops over the lighter weights and
    over the smaller parts at each position, as edge_number computed it
    before its closed form."""
    weight = len(v) + sum(v)
    rank = sum(2 ** (w - 1) for w in range(1, weight))
    for depth in range(1, len(v)):
        rank += comb(weight - 1, depth - 1)
    remaining = sum(v)
    for pos, c in enumerate(v):
        slots = len(v) - pos - 1
        for smaller in range(c):
            rank += comb(remaining - smaller + slots - 1, slots - 1) if slots else (
                1 if remaining == smaller else 0
            )
        remaining -= c
    return rank + 1


@st.composite
def light_paths(draw, max_weight=12):
    """Nonempty vertex paths of weight len(v) + sum(v) <= max_weight."""
    path = [draw(st.integers(0, max_weight - 1))]
    while len(path) + sum(path) < max_weight and draw(st.booleans()):
        path.append(draw(st.integers(0, max_weight - len(path) - sum(path) - 1)))
    return tuple(path)


@settings(max_examples=300, deadline=None)
@given(light_paths())
def test_edge_number_closed_form_matches_the_loops(v):
    assert edge_number(v, valency=None) == reference_edge_number(v)


def test_edge_number_closed_form_at_a_heavy_vertex():
    assert edge_number((10**5,), valency=None) == 2**10**5


# ---------------------------------------------------------------------------
# the embedding

def test_phi_examples():
    assert phi(()) == UNKNOT
    assert phi((0,)) == generator_knot(15) + generator_knot(105, True)
    assert phi((1,)) == generator_knot(945) + generator_knot(10395, True)


def test_phi_extends_parent():
    v = (0, 1, 1)
    parent = phi(v[:-1])
    n = edge_number(v)
    extra = generator_knot(p_sequence(2 * n)) + generator_knot(p_sequence(2 * n + 1), True)
    assert phi(v) == parent + extra


def test_phi_injective_to_depth_three():
    vs = vertices_to_depth(3)
    knots = [phi(v) for v in vs]
    assert len(vs) == 15
    assert len({k.generators for k in knots}) == len(vs)


# ---------------------------------------------------------------------------
# certificates

def test_certify_same_vertex():
    cert = certify_pair((0, 1), (0, 1))
    assert cert.lower == cert.upper == 0
    assert not cert.discrepancy
    assert verify_certificate(cert)


def test_certify_root_child():
    cert = certify_pair((), (0,))
    assert cert.k == 0 and cert.l == 1
    assert cert.observed_gap == 2
    assert cert.lower == 1 and cert.upper == 2
    assert cert.claimed_gap == 4 and cert.discrepancy
    assert verify_certificate(cert)


def test_certify_siblings():
    cert = certify_pair((0,), (1,))
    assert cert.meet == ()
    assert cert.observed_gap == 4
    assert cert.lower == 2 and cert.upper == 4
    assert verify_certificate(cert)


def test_certificate_self_validation_catches_tampering():
    cert = certify_pair((0,), (1, 0))
    assert verify_certificate(cert)
    bad = dataclasses.replace(cert, sigma_x=cert.sigma_x + 2)
    assert not verify_certificate(bad)
    bad = dataclasses.replace(cert, theta=cert.theta + F(1, 7))
    assert not verify_certificate(bad)
    bad = dataclasses.replace(cert, lower=cert.lower + 1)
    assert not verify_certificate(bad)
    assert cert.k != cert.l
    for bad in (
        dataclasses.replace(cert, k=cert.l, l=cert.k),
        dataclasses.replace(cert, meet=(0,)),
        dataclasses.replace(cert, claimed_gap=cert.observed_gap, discrepancy=False),
        dataclasses.replace(cert, discrepancy=not cert.discrepancy),
    ):
        assert not verify_certificate(bad), bad


def test_certificates_verify_after_payload_round_trip():
    for cert in certify_all(3):
        again = type(cert).from_payload(cert.payload())
        assert again == cert and verify_certificate(again)


def test_certificate_witness_signs():
    cert = certify_pair((0, 0), (1,))
    kx, ky = phi(cert.x), phi(cert.y)
    assert eval_formal_signature(kx, cert.theta) == cert.sigma_x
    assert eval_formal_signature(ky, cert.theta) == cert.sigma_y
    assert cert.observed_gap == 2 * tree_distance(cert.x, cert.y)


def test_certify_all_depth_two():
    certs = certify_all(2)
    assert len(certs) == 21
    for cert in certs:
        d = tree_distance(cert.x, cert.y)
        assert cert.lower == d and cert.upper == 2 * d
        assert verify_certificate(cert)
        assert cert.discrepancy == (d > 0)


def test_certify_all_refuses_a_pair_count_past_the_guard():
    """Depth 10 has 2047 vertices and 2 094 081 pairs, past the guard of
    10^6; depth 3 has 15 vertices and 105 pairs."""
    with pytest.raises(MaterializationLimitError, match="certify-all pair count 2094081 exceeds"):
        certify_all(10)
    assert len(certify_all(3)) == 105


def test_certify_pair_infinite_valency():
    cert = certify_pair((3,), (7, 2), valency=None)
    assert cert.lower == 3 and cert.upper == 6
    assert verify_certificate(cert, valency=None)


def reference_witness_request(x, y, valency):
    """The generators and signs certify_pair asks independence_witness for,
    derived from edge_number and p_sequence as before it read them off phi."""
    z = meet(x, y)
    inside, outside = -1, 1
    wanted = []
    for leaf, is_x_side in ((x, True), (y, False)):
        for cut in range(len(z) + 1, len(leaf) + 1):
            n = edge_number(leaf[:cut], valency)
            if is_x_side:
                wanted.append((p_sequence(2 * n), inside))
                wanted.append((p_sequence(2 * n + 1), outside))
            else:
                wanted.append((p_sequence(2 * n), outside))
                wanted.append((p_sequence(2 * n + 1), inside))
    wanted.sort()
    return [p for p, _ in wanted], [s for _, s in wanted]


def test_witness_requests_match_the_edge_derived_ones(monkeypatch):
    requests = []
    original = circle.independence_witness

    def recording(ps, signs):
        requests.append((list(ps), list(signs)))
        return original(ps, signs)

    monkeypatch.setattr(circle, "independence_witness", recording)
    vs = [v for d in range(6) for v in itertools.product(range(5), repeat=d) if d + sum(v) <= 5]
    assert len(vs) == 32
    for x, y in itertools.combinations(vs, 2):
        requests.clear()
        cert = certify_pair(x, y, valency=None)
        assert requests == [reference_witness_request(x, y, None)]
        assert verify_certificate(cert, valency=None)


def reference_witness_turn(x, y, valency):
    """The witness turn of certify_pair before net_coefficients: requested
    from the generators of phi(x) and phi(y) outside phi(meet(x, y)), each
    signed by its side and whether it is mirrored."""
    kx, ky = phi(x, valency), phi(y, valency)
    shared = set(phi(meet(x, y), valency))
    wanted = sorted(
        (g.p, side if g.mirrored else -side)
        for knot, side in ((kx, 1), (ky, -1))
        for g in knot
        if g not in shared
    )
    if not wanted:
        return Fraction(0)
    return circle.independence_witness([p for p, _ in wanted], [s for _, s in wanted])


def test_certificates_match_the_shared_set_request():
    """Every certificate of certify_all(4), and of the valency=None pairs
    above, is the one the shared-set request gives: same witness turn, and
    every other field rebuilt from it by verify_certificate."""
    for cert in certify_all(4):
        assert cert.theta == reference_witness_turn(cert.x, cert.y, 2)
        assert verify_certificate(cert)
    vs = [v for d in range(6) for v in itertools.product(range(5), repeat=d) if d + sum(v) <= 5]
    for x, y in [((3,), (7, 2)), *itertools.combinations(vs, 2)]:
        cert = certify_pair(x, y, valency=None)
        assert cert.theta == reference_witness_turn(x, y, None)
        assert verify_certificate(cert, valency=None)


def test_certificates_evaluate_signs_with_the_integer_kernel(monkeypatch):
    """Signatures at a witness convert the turn once per knot and then run
    circle.sign_at_turn on each generator, never generator_sign_at."""
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    count(circle, "generator_sign_at")
    count(circle, "as_turn")
    count(signature, "as_turn")
    cert = certify_pair((0, 1, 1, 0, 1, 0), (1, 0, 0, 1, 1, 1))
    assert verify_certificate(cert)
    assert calls["generator_sign_at"] == 0
    calls.clear()
    assert eval_formal_signature(phi(cert.x), cert.theta) == cert.sigma_x
    assert calls == {"as_turn": 1}


def test_certificate_payload_round_trip_reverifies():
    from gordian.graph import IsometryCertificate

    cert = certify_pair((0, 1), (1,))
    parsed = IsometryCertificate.from_payload(cert.payload())
    assert parsed == cert
    assert verify_certificate(parsed)


def test_detour_plan_payload_round_trip_reverifies():
    plan = build_detour([UNKNOT, generator_knot(3)], [generator_knot(7)])
    parsed = DetourPlan.from_payload(plan.payload())
    assert parsed == plan
    assert verify_detour(parsed).ok


# ---------------------------------------------------------------------------
# detours

def test_choose_detour_examples():
    assert choose_detour([UNKNOT]) == 3
    assert choose_detour([generator_knot(3)]) == 5
    assert choose_detour([generator_knot(3) + generator_knot(5)]) == 17
    assert choose_detour([]) == 3


def test_build_detour_degenerate_path():
    plan = build_detour([UNKNOT], [])
    assert plan.detour_p == 3
    assert plan.detoured_path == (UNKNOT, generator_knot(3), UNKNOT)
    assert verify_detour(plan)


def test_build_detour_example():
    path = [UNKNOT, generator_knot(3)]
    forbidden = [generator_knot(3) + generator_knot(5)]
    plan = build_detour(path, forbidden)
    report = verify_detour(plan)
    assert report.ok and bool(report)
    assert plan.detoured_path[0] == UNKNOT and plan.detoured_path[-1] == generator_knot(3)
    assert all(entry != forbidden[0] for entry in plan.detoured_path[1:-1])


def test_build_detour_rejects_forbidden_endpoint():
    with pytest.raises(DomainError):
        build_detour([UNKNOT, generator_knot(3)], [generator_knot(3)])


def test_verify_detour_flags_broken_plans():
    plan = build_detour([UNKNOT, generator_knot(3)], [generator_knot(7)])
    broken = DetourPlan(
        plan.forbidden,
        plan.path,
        plan.detour_p,
        plan.detoured_path[:-1] + (generator_knot(11),),
    )
    report = verify_detour(broken)
    assert not report.ok and report.failures
    # a forbidden knot smuggled into the interior cannot be certified distinct
    forb = plan.detoured_path[1]
    smuggled = DetourPlan((forb,), plan.path, plan.detour_p, plan.detoured_path)
    report = verify_detour(smuggled)
    assert not report.ok


def reference_verify_detour(plan):
    """The move-by-move check that verify_detour was before it rebuilt the
    detoured path; it indexes the path, so an empty path raises IndexError."""
    failures, certificates, moves = [], [], []
    kp = generator_knot(plan.detour_p)
    dp = plan.detoured_path
    if len(dp) != len(plan.path) + 2:
        failures.append("detoured path has the wrong length")
    else:
        if dp[0] != plan.path[0] or dp[-1] != plan.path[-1]:
            failures.append("detoured path does not start and end at the original endpoints")
        if dp[1] == dp[0] + kp:
            moves.append("add detour generator")
        else:
            failures.append("first move does not add the detour generator")
        for i in range(1, len(plan.path)):
            if dp[i + 1] == plan.path[i] + kp:
                moves.append("original path step")
            else:
                failures.append(f"move {i} does not track original path step {i}")
        if dp[-2] == dp[-1] + kp:
            moves.append("remove detour generator")
        else:
            failures.append("last move does not remove the detour generator")
    for i, entry in enumerate(dp[1:-1], start=1):
        for j, forb in enumerate(plan.forbidden):
            cert = distinctness_certificate(entry, forb)
            if cert is None:
                failures.append(
                    f"interior entry {i} ({entry}) cannot be certified distinct from forbidden knot {j}"
                )
            else:
                certificates.append({"entry": i, "forbidden": j, **cert})
    return DetourReport(not failures, tuple(certificates), tuple(moves), tuple(failures))


TWO_STEP = build_detour([UNKNOT, generator_knot(3), generator_knot(3) + generator_knot(5)], [generator_knot(7)])


def replace_entry(i, knot=generator_knot(11)):
    dp = list(TWO_STEP.detoured_path)
    dp[i] = knot
    return dataclasses.replace(TWO_STEP, detoured_path=tuple(dp))


@pytest.mark.parametrize(
    "plan, what",
    [
        (DetourPlan((), (), 3, (UNKNOT, UNKNOT)), "the path is empty"),
        (DetourPlan((), (), 3, ()), "the path is empty"),
        (dataclasses.replace(TWO_STEP, detoured_path=TWO_STEP.detoured_path[:-1]), "it has 4 entries, not 5"),
        (dataclasses.replace(TWO_STEP, detoured_path=TWO_STEP.detoured_path[:1]), "it has 1 entries, not 5"),
        (dataclasses.replace(TWO_STEP, detoured_path=TWO_STEP.detoured_path + (UNKNOT,)), "it has 6 entries, not 5"),
        (replace_entry(0), "first at entry 0"),
        (replace_entry(4), "first at entry 4"),
        (replace_entry(1), "first at entry 1"),
        (replace_entry(2), "first at entry 2"),
        (replace_entry(3), "first at entry 3"),
        (replace_entry(4, UNKNOT), "first at entry 4"),
        (dataclasses.replace(TWO_STEP, detour_p=TWO_STEP.detour_p + 2), "first at entry 1"),
    ],
)
def test_verify_detour_reports_a_malformed_plan_without_raising(plan, what):
    report = verify_detour(plan)
    p = plan.detour_p
    assert report == DetourReport(False, (), (), (f"detoured path differs from its rebuild with p = {p}: {what}",))
    assert not report


def test_verify_detour_names_a_huge_detour_parameter_without_raising():
    huge = dataclasses.replace(TWO_STEP, detour_p=p_sequence(3000))
    (failure,) = verify_detour(huge).failures
    assert failure.endswith(f"p = a number of {p_sequence(3000).bit_length()} bits: first at entry 1")


@pytest.mark.parametrize(
    "p, message",
    [
        (4, "p must be odd, got 4"),
        (1, "p must be at least 3, got 1"),
        (-3, "p must be at least 3, got -3"),
        (2 * p_sequence(3000), f"p must be odd, got a number of {(2 * p_sequence(3000)).bit_length()} bits"),
    ],
    ids=["even", "one", "negative", "even past the digit limit"],
)
def test_verify_detour_reports_a_detour_parameter_that_is_no_generator(p, message):
    report = verify_detour(dataclasses.replace(TWO_STEP, detour_p=p))
    assert report == DetourReport(False, (), (), (f"detoured path cannot be rebuilt: {message}",))


knot_pool = st.lists(st.tuples(st.sampled_from([3, 5, 7, 9, 11]), st.booleans()), max_size=3).map(FormalKnot)


@st.composite
def mutated_plans(draw):
    """A valid detour plan, then at most one change to its detoured path,
    its detour parameter, its path or its forbidden set."""
    path = draw(st.lists(knot_pool, min_size=1, max_size=5))
    forbidden = [f for f in draw(st.lists(knot_pool, max_size=4)) if f not in (path[0], path[-1])]
    plan = build_detour(path, forbidden)
    dp, path, forbidden = list(plan.detoured_path), list(plan.path), list(plan.forbidden)
    i = draw(st.integers(0, len(dp) - 1))
    kind = draw(st.sampled_from(["keep", "drop", "insert", "replace", "p", "path", "forbid"]))
    if kind == "drop":
        del dp[i]
    elif kind == "insert":
        dp.insert(i, draw(knot_pool))
    elif kind == "replace":
        dp[i] = draw(knot_pool)
    elif kind == "path":
        path[i % len(path)] = draw(knot_pool)
    elif kind == "forbid":
        forbidden.append(dp[i])
    p = draw(st.integers(1, 60).map(lambda n: 2 * n + 1)) if kind == "p" else plan.detour_p
    return DetourPlan(tuple(forbidden), tuple(path), p, tuple(dp))


@settings(max_examples=200, deadline=None)
@given(mutated_plans())
def test_verify_detour_matches_the_move_by_move_reference(plan):
    """Equal verdicts; a plan that rebuilds gets the reference's report, one
    that does not gets a single failure and no moves."""
    report, reference = verify_detour(plan), reference_verify_detour(plan)
    assert report.ok == reference.ok
    assert report == reference or (report.moves, len(report.failures)) == ((), 1)


def test_distinctness_certificates():
    k3, k5 = generator_knot(3), generator_knot(5)
    assert distinctness_certificate(k3, k3) is None
    by_alex = distinctness_certificate(k3, k5)
    assert by_alex["kind"] == "alexander"
    # same torus factors, different mirror split: only signatures separate them
    a = k3 + generator_knot(3, True)
    b = k3 + k3
    by_sig = distinctness_certificate(a, b)
    assert by_sig["kind"] == "signature"
    theta = F(by_sig["theta"])
    assert eval_formal_signature(a, theta) != eval_formal_signature(b, theta)


def test_signature_certificate_past_the_materialization_guard():
    """The generator mirrored on one side only is far past GORDIAN_MAX_P."""
    huge = generator_knot(p_sequence(29))
    k1, k2 = huge + generator_knot(3), mirror(huge) + generator_knot(3)
    cert = distinctness_certificate(k1, k2)
    assert cert == {"kind": "signature", "theta": f"1/{2 * p_sequence(29) - 1}", "sigma_1": 2, "sigma_2": -2}


same_parameter_pairs = st.lists(
    st.tuples(st.integers(1, 30).map(lambda i: 2 * i + 1), st.booleans(), st.booleans()), min_size=1, max_size=6
).map(lambda gens: (FormalKnot((p, m) for p, m, _ in gens), FormalKnot((p, m != flip) for p, m, flip in gens)))


@settings(max_examples=200, deadline=None)
@given(same_parameter_pairs)
def test_signature_certificates_separate_at_the_top_differing_parameter(pair):
    """Equal multiplicities with different mirrors: the signatures at the
    certificate's turn differ by twice the net count of the largest
    parameter where the two knots differ."""
    k1, k2 = pair
    diff = signed_multiplicities(k1 + k2.mirror())
    cert = distinctness_certificate(k1, k2)
    if not diff:
        assert k1 == k2 and cert is None
        return
    assert cert["kind"] == "signature"
    theta = F(cert["theta"])
    assert cert["sigma_1"] == eval_formal_signature(k1, theta)
    assert cert["sigma_2"] == eval_formal_signature(k2, theta)
    assert cert["sigma_1"] - cert["sigma_2"] == 2 * diff[max(diff)] != 0


def random_adjacent_walk(rng, length, pool):
    walk = [FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(3)))]
    while len(walk) < length:
        current = walk[-1]
        if current.generators and rng.random() < 0.5:
            gens = list(current.generators)
            gens.pop(rng.randrange(len(gens)))
            walk.append(FormalKnot(gens))
        else:
            walk.append(current + FormalKnot([(rng.choice(pool), rng.random() < 0.5)]))
    return walk


def test_randomized_detours_verify():
    rng = random.Random(73)
    pool = [3, 5, 7, 9, 11]
    for _ in range(50):
        path = random_adjacent_walk(rng, rng.randrange(1, 7), pool)
        forbidden = [
            FormalKnot((rng.choice(pool), rng.random() < 0.5) for _ in range(rng.randrange(4)))
            for _ in range(rng.randrange(9))
        ]
        forbidden = [f for f in forbidden if f != path[0] and f != path[-1]]
        plan = build_detour(path, forbidden)
        assert verify_detour(plan).ok


@pytest.mark.parametrize("v", [v for v in vertices_to_depth(3) if v])
def test_detours_around_the_tree_knots_verify(v):
    """The paper's two constructions compose: a tree path to v detours
    around the tree knots of every other vertex up to depth 3.  Since
    p_n | p_(n+1), the largest lcm of two parameters is the largest one."""
    path = [phi(v[:i]) for i in range(len(v) + 1)]
    forbidden = [phi(u) for u in vertices_to_depth(3) if phi(u) not in path]
    plan = build_detour(path, forbidden)
    assert verify_detour(plan).ok
    assert plan.detour_p == max(g.p for k in path + forbidden for g in k) + 2
