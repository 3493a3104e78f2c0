"""Materialization guard for operations whose cost grows with the torus parameter p."""

import os
import sys

from .errors import DomainError, MaterializationLimitError

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


def guard_error(what: str) -> MaterializationLimitError:
    """The materialization guard's refusal of `what`, naming the limit and its override."""
    return MaterializationLimitError(
        f"{what} exceeds the materialization guard ({materialization_limit()}); raise {ENV_VAR} to override"
    )


def describe(value) -> str:
    """str(value) for an int or a Fraction of any size, or "a number of N
    bits" past Python's limit of sys.get_int_max_str_digits() digits for
    integer string conversion, so that messages never raise while naming it."""
    try:
        return str(value)
    except ValueError:
        return f"a number of {max(abs(value.numerator), value.denominator).bit_length()} bits"


def digit_limit_error(what: str) -> MaterializationLimitError:
    """The refusal of `what`, past Python's digit limit, naming Python's own override."""
    return MaterializationLimitError(
        f"{what} exceeds Python's limit of {sys.get_int_max_str_digits()} digits "
        "for integer string conversion; set PYTHONINTMAXSTRDIGITS=0 to override"
    )


def decimal(value) -> str:
    """describe(value), raising digit_limit_error instead past Python's digit limit."""
    text = describe(value)
    if text.startswith("a number of "):
        raise digit_limit_error(text)
    return text
