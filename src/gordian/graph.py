"""Tree embedding into the gordian graph with distance certificates, and the
finite-complement detour construction.

Vertices of the tree are index paths from the root (the empty path).  Each
edge gets a number n; the knot of a vertex extends its parent's knot by
K_{p_(2n)} # mirror(K_{p_(2n+1)}) over the canonical generator sequence.  A
certificate for a pair of vertices carries a witness turn where the two
signatures differ by exactly 2 d_T, which sandwiches the gordian distance in
[d_T, 2 d_T].  Certificates also record the stronger per-edge jump of 4 that
the sandwich would need to be an isometry onto the doubled tree metric; the
discrepancy flag marks that the evaluated jump is 2, not 4.  Verification
rebuilds the certificate from (x, y, theta) and compares every field.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from . import circle, knots, signature
from .errors import DomainError
from .knots import FormalKnot, GeneratorId, UNKNOT, p_sequence
from .limits import decimal, describe

Vertex = tuple[int, ...]

ROOT: Vertex = ()


def parse_vertex(text: str) -> Vertex:
    """Parse 'root' or a comma-separated child index path like '0,1,1'."""
    text = text.strip()
    if text in ("", "root"):
        return ()
    try:
        path = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse vertex path {text!r}") from exc
    if any(i < 0 for i in path):
        raise DomainError(f"vertex indices must be nonnegative, got {text!r}")
    return path


def format_vertex(v: Vertex) -> str:
    return "root" if not v else ",".join(str(i) for i in v)


def meet(x: Vertex, y: Vertex) -> Vertex:
    """First common ancestor: the longest common prefix."""
    k = 0
    for a, b in zip(x, y):
        if a != b:
            break
        k += 1
    return tuple(x[:k])


def tree_distance(x: Vertex, y: Vertex) -> int:
    z = meet(x, y)
    return (len(x) - len(z)) + (len(y) - len(z))


def edge_number(v: Vertex, valency: int | None = 2) -> int:
    """Breadth-first number of the edge above v (the root's children come
    first, left to right).

    For finite valency b this is the standard b-ary heap numbering.  For the
    infinite-valency tree (valency=None) vertices are enumerated by
    increasing depth + index sum, then depth, then lexicographic path, which
    is a computable injective substitute for breadth-first order.
    """
    if not v:
        raise DomainError("the root has no edge above it")
    if any(i < 0 for i in v):
        raise DomainError("vertex indices must be nonnegative")
    if valency is not None:
        if any(i >= valency for i in v):
            raise DomainError(
                f"vertex {format_vertex(v)} has a child index >= valency {valency}; "
                "pass a larger valency or valency=None"
            )
        k = len(v)
        base = (valency**k - 1) // (valency - 1) if valency > 1 else k
        offset = 0
        for i in v:
            offset = offset * valency + i
        return base + offset if valency > 1 else k
    weight = len(v) + sum(v)
    rank = 2 ** (weight - 1) - 1  # the lighter vertices
    for depth in range(1, len(v)):
        rank += comb(weight - 1, depth - 1)
    remaining = sum(v)
    for pos, c in enumerate(v[:-1]):
        slots = len(v) - pos - 1
        # paths of v's depth and weight that first fall below v at pos
        rank += comb(remaining + slots, slots) - comb(remaining - c + slots, slots)
        remaining -= c
    return rank + 1


@functools.lru_cache(maxsize=None)
def phi(v: Vertex, valency: int | None = 2) -> FormalKnot:
    """The embedded knot of a vertex: the root maps to the unknot and each
    edge n contributes K_{p_(2n)} # mirror(K_{p_(2n+1)})."""
    if not v:
        return UNKNOT
    n = edge_number(v, valency)
    extra = FormalKnot([GeneratorId(p_sequence(2 * n)), GeneratorId(p_sequence(2 * n + 1), True)])
    return phi(v[:-1], valency) + extra


@dataclasses.dataclass(frozen=True)
class IsometryCertificate:
    """Machine-checkable witness for the distance sandwich of a vertex pair.

    observed_gap = |sigma_x(theta) - sigma_y(theta)| evaluates to 2(k + l);
    claimed_gap records the jump 4(k + l) that an isometry onto the doubled
    tree metric would require, and discrepancy flags that the two differ.
    Validity always keys off the observed value.
    """

    x: Vertex
    y: Vertex
    meet: Vertex
    k: int
    l: int
    theta: Fraction
    sigma_x: int
    sigma_y: int
    lower: int
    upper: int
    observed_gap: int
    claimed_gap: int
    discrepancy: bool

    def payload(self) -> dict:
        return {
            "x": format_vertex(self.x),
            "y": format_vertex(self.y),
            "meet": format_vertex(self.meet),
            "k": self.k,
            "l": self.l,
            "theta": decimal(self.theta),
            "sigma_x": self.sigma_x,
            "sigma_y": self.sigma_y,
            "lower": self.lower,
            "upper": self.upper,
            "observed_gap": self.observed_gap,
            "claimed_gap": self.claimed_gap,
            "discrepancy": self.discrepancy,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "IsometryCertificate":
        return cls(
            x=parse_vertex(payload["x"]),
            y=parse_vertex(payload["y"]),
            meet=parse_vertex(payload["meet"]),
            k=int(payload["k"]),
            l=int(payload["l"]),
            theta=Fraction(payload["theta"]),
            sigma_x=int(payload["sigma_x"]),
            sigma_y=int(payload["sigma_y"]),
            lower=int(payload["lower"]),
            upper=int(payload["upper"]),
            observed_gap=int(payload["observed_gap"]),
            claimed_gap=int(payload["claimed_gap"]),
            discrepancy=bool(payload["discrepancy"]),
        )


def certify_pair(x: Iterable[int], y: Iterable[int], valency: int | None = 2) -> IsometryCertificate:
    """Build the distance certificate for a pair of tree vertices.

    The witness turn is requested where D_p is negative for each net
    coefficient c_p > 0 of knots.net_coefficients and positive for each
    c_p < 0, so every x-side edge raises the signature difference by 2 and
    every y-side edge lowers it by 2.  Generators below the meet are shared
    by both knots and cancel in c_p, so they are not part of the request.
    """
    x, y = tuple(x), tuple(y)
    net = knots.net_coefficients(phi(x, valency), phi(y, valency))
    theta = Fraction(0)
    if net:
        ps = sorted(net)
        theta = circle.independence_witness(ps, [-1 if net[p] > 0 else 1 for p in ps])
    return _certificate(x, y, theta, valency)


def _certificate(x: Vertex, y: Vertex, theta: Fraction, valency: int | None) -> IsometryCertificate:
    """The certificate of (x, y) at the witness turn theta; the one builder of its fields."""
    z = meet(x, y)
    k = len(x) - len(z)
    l = len(y) - len(z)
    sigma_x = signature.eval_formal_signature(phi(x, valency), theta)
    sigma_y = signature.eval_formal_signature(phi(y, valency), theta)
    observed = abs(sigma_x - sigma_y)
    return IsometryCertificate(
        x=x,
        y=y,
        meet=z,
        k=k,
        l=l,
        theta=theta,
        sigma_x=sigma_x,
        sigma_y=sigma_y,
        lower=(observed + 1) // 2,
        upper=2 * (k + l),
        observed_gap=observed,
        claimed_gap=4 * (k + l),
        discrepancy=(4 * (k + l) != observed),
    )


def verify_certificate(cert: IsometryCertificate, valency: int | None = 2) -> bool:
    """Rebuild the certificate from its pair (x, y) and witness turn theta,
    re-evaluating both signatures there, and compare every field."""
    return cert == _certificate(cert.x, cert.y, cert.theta, valency)


def vertices_to_depth(depth: int, valency: int = 2) -> list[Vertex]:
    out: list[Vertex] = [()]
    frontier: list[Vertex] = [()]
    for _ in range(depth):
        frontier = [v + (i,) for v in frontier for i in range(valency)]
        out.extend(frontier)
    return out


def certify_all(depth: int, valency: int = 2) -> list[IsometryCertificate]:
    """Certificates for every unordered pair of distinct vertices up to depth."""
    vs = vertices_to_depth(depth, valency)
    out = []
    for i, x in enumerate(vs):
        for y in vs[i + 1 :]:
            out.append(certify_pair(x, y, valency))
    return out


def choose_detour(forbidden: Iterable[FormalKnot]) -> int:
    """Smallest odd p >= 3 whose generator breakpoint spacing 1/p is strictly
    below every root gap of the forbidden knots.

    Summing with K_p then changes every forbidden knot into one whose
    Alexander polynomial has a smaller minimal root gap than any forbidden
    polynomial, hence is distinct from all of them.  Every root gap is 1/L
    in closed form, L an odd lcm of two forbidden parameters or 1, so p is
    the largest L plus 2, of any size; nothing is materialized.
    """
    return int(max((1 / knots.root_gap(k) for k in forbidden), default=1)) + 2


@dataclasses.dataclass(frozen=True)
class DetourPlan:
    """A reroute of a knot path around a finite forbidden set.

    detoured_path lifts every path entry by the connected sum with K_p and
    re-enters the original endpoints, so consecutive entries differ by one
    construction move and no interior entry can coincide with a forbidden
    knot.
    """

    forbidden: tuple[FormalKnot, ...]
    path: tuple[FormalKnot, ...]
    detour_p: int
    detoured_path: tuple[FormalKnot, ...]

    def payload(self) -> dict:
        return {
            "forbidden": [k.records() for k in self.forbidden],
            "path": [k.records() for k in self.path],
            "detour_p": decimal(self.detour_p),
            "detoured_path": [k.records() for k in self.detoured_path],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DetourPlan":
        return cls(
            forbidden=tuple(FormalKnot.from_records(r) for r in payload["forbidden"]),
            path=tuple(FormalKnot.from_records(r) for r in payload["path"]),
            detour_p=int(payload["detour_p"]),
            detoured_path=tuple(FormalKnot.from_records(r) for r in payload["detoured_path"]),
        )


def build_detour(path: Sequence[FormalKnot], forbidden: Iterable[FormalKnot]) -> DetourPlan:
    """Construct the detour [L_0, L_0 # K_p, ..., L_k # K_p, L_k] with
    p = choose_detour over the forbidden set together with the path entries."""
    path = tuple(path)
    forbidden = tuple(forbidden)
    if not path:
        raise DomainError("the path must be nonempty")
    for end in (path[0], path[-1]):
        if any(end == f for f in forbidden):
            raise DomainError(f"path endpoint {end} is itself forbidden")
    p = choose_detour(forbidden + path)
    return DetourPlan(forbidden, path, p, _detoured(path, p))


def _detoured(path: tuple[FormalKnot, ...], p: int) -> tuple[FormalKnot, ...]:
    """[L_0, L_0 # K_p, ..., L_k # K_p, L_k] for the path [L_0, ..., L_k], or ()."""
    kp = knots.generator_knot(p)
    return path[:1] + tuple(entry + kp for entry in path) + path[-1:]


def distinctness_certificate(k1: FormalKnot, k2: FormalKnot) -> dict | None:
    """Evidence that two formal knots are distinct, or None if they are equal.

    Either the Alexander polynomials differ (the torus factor multiplicities
    determine the product uniquely), or the net mirror counts c_p differ.  With
    P the largest p where they do, every D_q with q < P is positive at the turn
    1/(2P - 1) and D_P is negative, so the signatures there differ by 2 c_P.
    """
    if k1 == k2:
        return None
    m1, m2 = knots.multiplicities(k1), knots.multiplicities(k2)
    if m1 != m2:
        cert: dict = {"kind": "alexander"}
        if max(sum((p - 1) // 2 * c for p, c in m.items()) for m in (m1, m2)) <= 128:
            cert["alexander_1"] = str(knots.alexander(k1))
            cert["alexander_2"] = str(knots.alexander(k2))
        else:
            cert["factors_1"] = {decimal(p): c for p, c in sorted(m1.items())}
            cert["factors_2"] = {decimal(p): c for p, c in sorted(m2.items())}
        return cert
    theta = Fraction(1, 2 * max(knots.net_coefficients(k1, k2)) - 1)
    return {
        "kind": "signature",
        "theta": decimal(theta),
        "sigma_1": signature.eval_formal_signature(k1, theta),
        "sigma_2": signature.eval_formal_signature(k2, theta),
    }


@dataclasses.dataclass(frozen=True)
class DetourReport:
    """Outcome of verifying a DetourPlan; truthy iff every check passed."""

    ok: bool
    entry_certificates: tuple[dict, ...]
    moves: tuple[str, ...]
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "entry_certificates": list(self.entry_certificates),
            "moves": list(self.moves),
            "failures": list(self.failures),
        }


def verify_detour(plan: DetourPlan) -> DetourReport:
    """Check a detour plan: its path is nonempty and rebuilds with detour_p to
    exactly its detoured path, and every interior entry is certified distinct
    from every forbidden knot.  A plan that does not rebuild gets one failure,
    naming the first differing entry, the length or a detour_p that is no
    generator parameter.

    Adjacency of the original path entries is an axiom of the formal model,
    as is adjacency under a single connected sum with a gordian generator.
    """
    try:
        rebuilt = _detoured(plan.path, plan.detour_p)
    except DomainError as exc:
        return DetourReport(False, (), (), (f"detoured path cannot be rebuilt: {exc}",))
    dp = plan.detoured_path
    if not plan.path or dp != rebuilt:
        at = next((i for i, (a, b) in enumerate(zip(dp, rebuilt)) if a != b), None)
        what = (
            "the path is empty" if not plan.path
            else f"first at entry {at}" if at is not None
            else f"it has {len(dp)} entries, not {len(rebuilt)}"
        )
        failure = f"detoured path differs from its rebuild with p = {describe(plan.detour_p)}: {what}"
        return DetourReport(False, (), (), (failure,))
    moves = ("add detour generator",) + ("original path step",) * (len(dp) - 3) + ("remove detour generator",)
    failures: list[str] = []
    certificates: list[dict] = []
    for i, entry in enumerate(dp[1:-1], start=1):
        for j, forb in enumerate(plan.forbidden):
            cert = distinctness_certificate(entry, forb)
            if cert is None:
                failures.append(
                    f"interior entry {i} ({entry}) cannot be certified distinct from forbidden knot {j}"
                )
            else:
                certificates.append({"entry": i, "forbidden": j, **cert})
    return DetourReport(not failures, tuple(certificates), moves, tuple(failures))
