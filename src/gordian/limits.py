"""Materialization guard for operations whose cost grows with the torus parameter p."""

import os

from .errors import DomainError

DEFAULT_MAX_P = 10**6

ENV_VAR = "GORDIAN_MAX_P"


def materialization_limit() -> int:
    """Largest p for which breakpoint lists and torus polynomials may be materialized.

    Overridden by the GORDIAN_MAX_P environment variable.  Signature evaluation
    itself never materializes and works for arbitrarily large p.  A value that
    is not an integer, or is below 3, raises DomainError.
    """
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_P
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 3:
        raise DomainError(f"{ENV_VAR} must be at least 3, got {value}")
    return value
