"""Exact-arithmetic toolkit for knot signatures and the gordian graph.

Provides sparse integer Laurent polynomials with the normalized basis,
rational arc-set algebra on the circle, signature step functions with Sturm
root isolation, formal knots with gordian distance bounds, a certified tree
embedding, and detours around finite forbidden sets, all in exact integer
and rational arithmetic with no floating point.
"""

__version__ = "0.1.0"

from .circle import (
    ArcSet,
    arcs_of_generator,
    as_turn,
    complement,
    generator_breakpoints,
    generator_sign_at,
    independence_witness,
    intersect,
    is_empty,
)
from .errors import (
    DomainError,
    MaterializationLimitError,
    NonSimpleRootError,
    SpacingError,
)
from .graph import (
    DetourPlan,
    DetourReport,
    IsometryCertificate,
    build_detour,
    certify_all,
    certify_pair,
    choose_detour,
    edge_number,
    format_vertex,
    meet,
    parse_vertex,
    phi,
    tree_distance,
    verify_certificate,
    verify_detour,
)
from .knots import (
    UNKNOT,
    FormalKnot,
    GeneratorId,
    alexander,
    connected_sum,
    distance_lower_bound,
    generator_knot,
    mirror,
    p_sequence,
    unknotting_upper_bound,
)
from .laurent import (
    HalfLaurent,
    LaurentPoly,
    format_poly,
    from_basis,
    is_normalized,
    linking_form,
    parse_poly,
    symmetrize,
    to_basis,
    to_chebyshev,
    torus_factorization,
    torus_poly,
)
from .signature import (
    AlgebraicAngle,
    GapBound,
    RootIsolation,
    StepFun,
    angle_cmp,
    eval_formal_signature,
    isolate_circle_roots,
    min_root_gap,
    signature_of_poly,
    sup_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
